"""The benchmark's oracles accept the kit's outputs and reject perturbed ones.

    python3 -m pytest bench/test_oracles.py

Each oracle and property check is first run on real kit output (it
must pass), then on a copy with one value perturbed well above the
kit's accuracy (it must fail).
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import mpmath as mp
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from talenti_kit import cli  # noqa: E402

SPECS = [
    ("probe", {"kind": "model-probe", "K": "2.3", "N": 4, "n": 4000}),
    ("model-const", {"kind": "talenti", "K": 2, "N": 3, "p": "1.5",
                     "v": "0.45", "f": "const 1"}),
    ("cap-dec", {"kind": "talenti", "K": 2, "N": 3, "p": "3", "v": "0.4",
                 "a": "0.25", "f": "twolevel 2 0.5 0.3"}),
    ("poi-inc", {"kind": "poisson", "K": 2, "N": 3, "p": "2", "v": "0.4",
                 "a": "0.2", "f": "twolevel 0.5 2 0.3"}),
    ("eigen-cap", {"kind": "eigen", "K": 2, "N": 3, "p": "2", "v": "0.4",
                   "a": "0.25"}),
    ("anchor", {"kind": "eigen", "K": 2, "N": 3, "p": "2", "v": "0.5"}),
    ("holder", {"kind": "holder", "K": 2, "N": 3, "p": "2", "v": "0.4",
                "a": "0.2"}),
    ("sweep", {"kind": "stability-sweep", "K": 2, "N": 3, "p": "2",
               "v": "0.4", "a_list": "0.05,0.15,0.25"}),
    ("sob", {"kind": "sobolev", "K": 2, "N": 3, "p": "2", "v": "0.4",
             "f": "const 1", "s": "3"}),
]
KV = dict(SPECS)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("kit")
    text = workloads.render(SPECS)
    records = cli.run_scenarios(cli.parse_scenarios_text(text, "oracles"),
                                out)
    assert all(r.passed for r in records)
    return out, oracles.oracle_values(SPECS)


def _check(run, name):
    out, vals = run
    return oracles.check_scenario(name, KV[name], out, vals)


def _perturb(run, tmp_path, table, row, col, change):
    """Copy the run with one CSV cell replaced by change(value)."""
    out, vals = run
    for f in out.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    path = tmp_path / table
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][col] = repr(change(float(rows[row + 1][col])))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return tmp_path, vals


def _perturbed_check(run, tmp_path, name, table, row, col, change):
    out, vals = _perturb(run, tmp_path, table, row, col, change)
    return oracles.check_scenario(name, KV[name], out, vals)


def test_kit_outputs_pass_every_oracle(run):
    for name, _ in SPECS:
        assert _check(run, name) == [], name


def test_closed_form_model_matches_mpmath_quadrature():
    m = oracles.Model(2.3, 4)
    for t in (0.1, 0.7, 0.5 * m.L, 1.9):
        with mp.workdps(30):
            ref = mp.quad(lambda x: mp.sin(m.scale * x) ** 3, [0, t]) \
                / mp.quad(lambda x: mp.sin(m.scale * x) ** 3, [0, m.L])
        assert abs(float(m.H(t)) - float(ref)) < 1e-14
        assert abs(float(m.Hinv(float(ref))) - t) < 1e-12


@pytest.mark.parametrize("col,change", [
    (1, lambda r: r * (1.0 + 1e-8)),   # radius
    (2, lambda h: h * (1.0 + 1e-7)),   # profile
])
def test_model_probe_rejects_perturbed_table(run, tmp_path, col, change):
    assert _perturbed_check(run, tmp_path, "probe", "probe.csv", 1234, col,
                            change)


@pytest.mark.parametrize("name", ["model-const", "cap-dec"])
def test_sup_u_rejects_perturbed_value(run, tmp_path, name):
    # row 4 of the talenti table is sup_u
    assert _perturbed_check(run, tmp_path, name, f"{name}.csv", 4, 1,
                            lambda x: x * (1.0 + 1e-6))


def test_sup_u_rejects_perturbed_poisson_origin(run, tmp_path):
    assert _perturbed_check(run, tmp_path, "poi-inc", "poi-inc.csv", 0, 1,
                            lambda x: x * (1.0 + 1e-6))


@pytest.mark.parametrize("col", [0, 1])   # lambda_instance, lambda_model
def test_finite_volume_eigenvalue_rejects_perturbed_lambda(run, tmp_path,
                                                           col):
    bad = _perturbed_check(run, tmp_path, "eigen-cap",
                           "eigen-cap-spectrum.csv", 0, col,
                           lambda x: x * (1.0 + 1e-5))
    assert any("misses" in msg for msg in bad)


def test_finite_volume_anchor_matches_lambda_n():
    for N in (3, 4):
        assert abs(oracles.lambda_p2(N - 1, N, 0.0, 0.5) - N) < 1e-8 * N


@pytest.mark.parametrize("change", [lambda x: x * (1.0 + 1e-5),
                                    lambda _: 0.41])
def test_holder_alpha_rejects_perturbed_mass(run, tmp_path, change):
    # holder-chiti.csv: alpha, crossing, violation, delta; v = 0.4
    assert _perturbed_check(run, tmp_path, "holder", "holder-chiti.csv", 0,
                            0, change)


def test_anchor_rejects_perturbed_lambda(run, tmp_path):
    bad = _perturbed_check(run, tmp_path, "anchor", "anchor-spectrum.csv",
                           0, 0, lambda x: x * (1.0 + 1e-5))
    assert any("anchor" in msg for msg in bad)


def test_sharpness_rejects_gap(run, tmp_path):
    # row 3 of the talenti table is sharpness_gap
    assert _perturbed_check(run, tmp_path, "model-const", "model-const.csv",
                            3, 1, lambda _: 1e-5)


def test_faber_krahn_rejects_negative_margin():
    assert oracles.check_faber_krahn(2.0, 2.1, -0.1, strict=False)
    assert oracles.check_faber_krahn(2.0, 2.0, 0.0, strict=True)
    assert not oracles.check_faber_krahn(2.0, 2.0, 0.0, strict=False)


def test_faber_krahn_rejects_margin_off_the_oracle():
    # consistent with its own eigenvalues, but 1e-5 off the oracle margin
    assert not oracles.check_faber_krahn(2.1, 2.0, 2.1 - 2.0, strict=True,
                                         oracle_margin=0.1)
    assert oracles.check_faber_krahn(2.1 + 1e-5, 2.0, 2.1 + 1e-5 - 2.0,
                                     strict=True, oracle_margin=0.1)


def test_holder_rejects_swapped_ratios(run):
    out, _ = run
    rows = oracles._floats(out / "holder.csv")
    assert any(ri != rm for _, ri, rm in rows)
    assert oracles.check_holder([(t, rm, ri) for t, ri, rm in rows])


def test_sweep_rejects_non_monotone_deficit(run):
    out, _ = run
    rows = oracles._floats(out / "sweep.csv")
    swapped = [rows[0][:2] + rows[1][2:], rows[1][:2] + rows[0][2:],
               *rows[2:]]
    assert oracles.check_sweep(swapped)


@pytest.mark.parametrize("row,value", [(1, 3.0), (2, math.inf)])
def test_c1_regime_rejects_wrong_side(run, tmp_path, row, value):
    # rows: s = crit(1 - 1e-3), crit, crit(1 + 1e-3), 2 crit, s
    assert _perturbed_check(run, tmp_path, "sob", "sob.csv", row, 2,
                            lambda _: value)
