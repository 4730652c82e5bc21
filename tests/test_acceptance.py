"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS/FAIL line with the measured extremes,
so a verbose run reads as a scorecard (pytest -v lists one line per
criterion; -s also shows the measured numbers).  The expensive
pipelines are session fixtures shared across criteria: the model
comparison grid feeds 1 and 10, the shifted-cap comparison grid feeds
2 and 10, the poisson problem set feeds 3 and 9, and the eigen cap
suite feeds 5, 6 and 7.  Budgets are pinned below; a regression fails
the test rather than widening a budget.
"""

import math
import time

import numpy as np
import pytest

from talenti_kit import cli
from talenti_kit.eigen import (
    alpha_from_lambda,
    chiti_compare,
    first_eigenpair,
    model_eigenpair,
    reverse_holder,
)
from talenti_kit.radial_poisson import (
    RadialProblem,
    gradient_norm,
    gradient_norm_mass,
    solve_explicit,
)
from talenti_kit.rearrangement import (
    SampledFunction,
    decreasing_rearrangement,
    lp_norm,
    sample_on_cells,
    schwarz_symmetrize,
)
from talenti_kit.sobolev_embed import c1_constant, check_embedding, \
    is_divergent
from talenti_kit.talenti_check import ProblemInstance, make_shifted_cap, \
    model_for, run_comparison

MODEL_CASES = [(N, p, ftext) for N in (3, 4) for p in (1.5, 2.0, 3.0)
               for ftext in ("const 1", "cospos")]
CAP_CASES = [(a, v, p) for a in (0.2, 0.3) for v in (0.3, 0.5)
             for p in (2.0, 3.0)]
EIGEN_PS = (1.5, 2.0, 3.0)
EIGEN_AS = (0.2, 0.3)
EIGEN_V = 0.4


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    print(f"{line} ({detail})")
    assert ok, f"{line} ({detail})"


def _source(text: str):
    return cli._parse_source("acceptance", text)


@pytest.fixture(scope="session")
def model_reports():
    """Timed comparison reports on the model grid of criterion 1."""
    out = []
    for N, p, ftext in MODEL_CASES:
        spec = _source(ftext)
        ival = model_for(N - 1.0, float(N))
        inst = ProblemInstance(space=ival, p=p, f=spec, v=0.5,
                               label="model", f_knots=spec.knots)
        start = time.perf_counter()
        rep = run_comparison(inst, n_check=4096)
        out.append((f"N={N} p={p} {spec.form}", rep,
                    time.perf_counter() - start))
    return out


@pytest.fixture(scope="session")
def cap_reports():
    """Timed comparison reports on the shifted-cap grid of criterion 2."""
    out = []
    spec = _source("twolevel 2 0.5 0.25")
    for a, v, p in CAP_CASES:
        cap = make_shifted_cap(2.0, 3.0, a, v)
        inst = ProblemInstance(space=cap, p=p, f=spec, v=v,
                               label="cap", f_knots=spec.knots)
        start = time.perf_counter()
        rep = run_comparison(inst)
        out.append((f"a={a} v={v} p={p}", rep, time.perf_counter() - start))
    return out


@pytest.fixture(scope="session")
def poisson_set():
    """Solved problems on model and cap: both sources are exact steps in
    mass coordinates, so the identity check of criterion 3 has no
    sampling error of its own."""
    spaces = [("model", model_for(2.0, 3.0), 0.5),
              ("cap", make_shifted_cap(2.0, 3.0, 0.3, 0.4), 0.4)]
    out = []
    for label, space, v in spaces:
        r1 = float(space.inverse_cumulative(v * space.total))
        for p in (1.5, 2.0, 3.0):
            for ftext in ("const 1", "twolevel 2 0.5 0.25"):
                spec = _source(ftext)
                prob = RadialProblem(space=space, p=p, f=spec, r1=r1,
                                     f_knots=spec.knots)
                sol = solve_explicit(prob)
                out.append((f"{label} p={p} {spec.form}", spec, prob, sol))
    return out


@pytest.fixture(scope="session")
def eigen_suite():
    """Eigen pipeline over the cap grid plus model self-comparisons."""
    caps, models = [], []
    ival = model_for(2.0, 3.0)
    for p in EIGEN_PS:
        r = p - 1.0
        grid = (r, 2.0 * r, 5.0 * r)
        zv = model_eigenpair(2.0, 3.0, p, EIGEN_V)
        um = first_eigenpair(ival, EIGEN_V, p, seed=zv.lam)
        models.append((p, um.lam - zv.lam, reverse_holder(um, zv, r, grid)))
        for a in EIGEN_AS:
            cap = make_shifted_cap(2.0, 3.0, a, EIGEN_V)
            u = first_eigenpair(cap, EIGEN_V, p, seed=zv.lam)
            _, z = alpha_from_lambda(zv, u.lam)
            crossing, viol = chiti_compare(u, z, r)
            caps.append({
                "label": f"p={p} a={a}",
                "u": u,
                "z": z,
                "margin": u.lam - zv.lam,
                "crossing": crossing,
                "viol": viol,
                "hol": reverse_holder(u, z, r, grid),
            })
    return caps, models


def test_criterion_01_model_sharpness(model_reports):
    gaps = [rep.sharpness_gap for _, rep, _ in model_reports]
    slowest = max(dt for _, _, dt in model_reports)
    worst = max(gaps)
    ok = all(math.isfinite(g) for g in gaps) and worst <= 1e-6 \
        and slowest < 5.0
    _verdict(1, "model-sharpness", ok,
             f"{len(gaps)} cases, worst sup gap {worst:.3g}, "
             f"slowest {slowest:.2f} s")


def test_criterion_02_cap_comparison(cap_reports):
    worst_pw = max(rep.pointwise_violation - rep.grid_bound
                   for _, rep, _ in cap_reports)
    worst_grad = min(rhs - lhs for _, rep, _ in cap_reports
                     for lhs, rhs in rep.gradient_gaps.values())
    slowest = max(dt for _, _, dt in cap_reports)
    ok = worst_pw <= 1e-8 and worst_grad >= -1e-8 and slowest < 10.0
    _verdict(2, "cap-comparison", ok,
             f"{len(cap_reports)} cases, worst pointwise excess "
             f"{worst_pw:.3g}, worst gradient slack {worst_grad:.3g}, "
             f"slowest {slowest:.2f} s")


def test_criterion_03_gradient_identity(poisson_set):
    worst = 0.0
    n = 0
    for _, spec, prob, sol in poisson_set:
        sharp = spec.mass_step(prob.space, prob.r1)
        for r in (1.0, 0.5 * (1.0 + prob.p), prob.p):
            g_phys = gradient_norm(sol, prob, r)
            g_mass = gradient_norm_mass(prob, sharp, r)
            worst = max(worst,
                        abs(g_phys - g_mass) / max(g_phys, g_mass, 1e-300))
            n += 1
    ok = worst <= 1e-6
    _verdict(3, "gradient-identity", ok,
             f"{n} evaluations, worst relative gap {worst:.3g}")


def test_criterion_04_eigen_anchor():
    worst_lam = worst_cos = slowest = 0.0
    for N in (3, 4, 5):
        ival = model_for(N - 1.0, float(N))
        start = time.perf_counter()
        pair = first_eigenpair(ival, 0.5, 2.0)
        slowest = max(slowest, time.perf_counter() - start)
        worst_lam = max(worst_lam, abs(pair.lam - N) / N)
        tg = np.linspace(0.0, pair.r_alpha, 2049)
        z0 = float(pair.z_at(0.0))
        prof = np.asarray(pair.z_at(tg), dtype=float) / z0
        worst_cos = max(worst_cos, float(np.max(np.abs(prof - np.cos(tg)))))
    ok = worst_lam <= 1e-4 and worst_cos <= 1e-4 and slowest < 10.0
    _verdict(4, "eigen-anchor", ok,
             f"worst relative eigenvalue error {worst_lam:.3g}, worst "
             f"cosine distance {worst_cos:.3g}, slowest {slowest:.2f} s")


def test_criterion_05_faber_krahn(eigen_suite):
    caps, models = eigen_suite
    worst_cap = min(entry["margin"] for entry in caps)
    worst_model = max(abs(m) for _, m, _ in models)
    ok = worst_cap >= -1e-8 and worst_model <= 1e-6
    _verdict(5, "faber-krahn", ok,
             f"worst cap margin {worst_cap:.3g}, worst model "
             f"equality gap {worst_model:.3g}")


def test_criterion_06_chiti(eigen_suite):
    caps, _ = eigen_suite
    worst = max(entry["viol"] for entry in caps)
    # the crossing abscissa lives on the model segment carrying z, so
    # its support radius is the bound, not the instance domain radius
    inside = all(0.0 < entry["crossing"]
                 <= entry["z"].r_alpha * (1.0 + 1e-12) for entry in caps)
    ok = worst <= 1e-6 and inside
    _verdict(6, "chiti-single-crossing", ok,
             f"{len(caps)} instances, one crossing each, worst "
             f"ordering violation {worst:.3g}")


def test_criterion_07_reverse_holder(eigen_suite):
    caps, models = eigen_suite
    worst_gap = max(entry["hol"].ratios_instance[t]
                    - entry["hol"].ratios_model[t]
                    for entry in caps for t in entry["hol"].t_grid)
    worst_model = max(abs(hol.ratios_instance[t] - hol.ratios_model[t])
                      for _, _, hol in models for t in hol.t_grid)
    ok = worst_gap <= 1e-8 and worst_model <= 1e-8
    _verdict(7, "reverse-holder", ok,
             f"worst ratio excess {worst_gap:.3g}, worst model "
             f"equality gap {worst_model:.3g}")


def test_criterion_08_rearrangement():
    rng = np.random.default_rng(20250811)
    n = 100_000
    raw = rng.uniform(0.1, 1.0, n)
    u = SampledFunction(raw / raw.sum(), rng.uniform(0.0, 5.0, n))
    start = time.perf_counter()
    step = decreasing_rearrangement(u)
    elapsed = time.perf_counter() - start
    total = float(np.sum(u.measures))
    atomic_err = max(
        abs(step.support_end - total) / total,
        abs(lp_norm(u, 1.0) - lp_norm(step, 1.0)) / lp_norm(u, 1.0),
        abs(lp_norm(u, 2.0) - lp_norm(step, 2.0)) / lp_norm(u, 2.0),
    )
    # a radial nonincreasing source is its own symmetrization, so the
    # sampled route is judged against the function it started from
    spec = _source("cospos")
    ival = model_for(2.0, 3.0)
    r1 = float(ival.inverse_cumulative(0.7 * ival.total))
    sampled = sample_on_cells(spec, ival.cumulative, r1, n_cells=8192)
    sym = schwarz_symmetrize(sampled, model_for(2.0, 3.0))
    xs = np.linspace(0.05 * r1, 0.95 * r1, 257)
    sampled_err = float(np.max(np.abs(np.asarray(sym(xs), dtype=float)
                                      - spec(xs))))
    ok = atomic_err <= 1e-12 and sampled_err <= 1e-3 and elapsed < 2.0
    _verdict(8, "rearrangement", ok,
             f"atomic error {atomic_err:.3g} at {n} cells in "
             f"{elapsed:.2f} s, sampled error {sampled_err:.3g}")


def test_criterion_09_embedding(poisson_set):
    flips_ok = True
    for K, N, p in ((2.0, 3.0, 2.0), (3.0, 4.0, 2.0), (2.0, 3.0, 1.5),
                    (2.0, 3.0, 2.5)):
        crit = N / p
        flips_ok &= is_divergent(c1_constant(K, N, 0.5, p,
                                             crit * (1.0 - 1e-3)))
        flips_ok &= is_divergent(c1_constant(K, N, 0.5, p, crit))
        flips_ok &= not is_divergent(c1_constant(K, N, 0.5, p,
                                                 crit * (1.0 + 1e-3)))
    worst = math.inf
    n = 0
    for _, _, prob, sol in poisson_set:
        for s, t in ((math.inf, None), (2.5, 3.0)):
            worst = min(worst, check_embedding(prob, sol, s, t).slack)
            n += 1
    ok = flips_ok and worst >= -1e-8
    _verdict(9, "sobolev-embedding", ok,
             f"finiteness flips at N/p exact, worst slack {worst:.3g} "
             f"over {n} bounds")


def test_criterion_10_levy_gromov(model_reports, cap_reports):
    ratios = [rep.levy_gromov_min_ratio
              for _, rep, _ in model_reports + cap_reports]
    worst = min(ratios)
    model_dev = max(abs(rep.levy_gromov_min_ratio - 1.0)
                    for _, rep, _ in model_reports)
    ok = worst >= 1.0 - 1e-8 and model_dev <= 1e-9
    _verdict(10, "levy-gromov", ok,
             f"worst level ratio {worst:.12g} over {len(ratios)} "
             f"instances, model deviation {model_dev:.3g}")


def test_criterion_11_stability_sweep(tmp_path_factory):
    text = ("[sweep]\nkind = stability-sweep\nK = 2\nN = 3\np = 2\n"
            "v = 0.4\na_list = 0.05 0.1 0.15 0.2 0.25 0.3 0.35 0.4 "
            "0.45 0.5\n")
    out = tmp_path_factory.mktemp("sweep")
    records = cli.run_scenarios(cli.parse_scenarios_text(text, "acceptance"),
                                out, label="acceptance")
    rec = records[0]
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    deltas = [float(line.split(",")[2]) for line in rows]
    nondecreasing = all(b >= a for a, b in zip(deltas, deltas[1:]))
    spearman = {c.name: c for c in rec.checks}["monotone-spearman"]
    ok = rec.passed and nondecreasing and spearman.passed \
        and len(deltas) == 10
    _verdict(11, "stability-sweep", ok,
             f"10 shifts, deficits {deltas[0]:.3g} .. {deltas[-1]:.3g}, "
             f"rank correlation slack {spearman.slack:.3g}")
