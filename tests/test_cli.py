"""Scenario runner: parsing, execution, records, determinism.

One mixed run covering every scenario kind is shared module-wide and
drives the record assertions; records are key = value blocks that
configparser can read back, which the checks exploit.  CSV contents
are asserted structurally (17-digit round trip, column shapes), not
against frozen values: byte-identical reruns are the contract here,
the numbers themselves are pinned by the library test files.
"""

import configparser
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from talenti_kit import cli, eigen, errors, sobolev_embed
from talenti_kit.cli import (
    ParseError,
    list_builtin_suites,
    load_scenarios,
    main,
    parse_scenarios_text,
    suite_scenarios,
)
from talenti_kit.model_space import ModelSpace
from talenti_kit.talenti_check import make_shifted_cap, model_for

MIXED = """\
[probe]
kind = model-probe
K = 2
N = 3
n = 9

[sym]
kind = symmetrize
K = 2
N = 3
v = 0.4
f = twolevel 2 0.5 0.3

[poi-const]
kind = poisson
K = 2
N = 3
p = 2
v = 0.4
f = const 1

[poi-rev]
kind = poisson
K = 2
N = 3
p = 1.5
v = 0.4
f = twolevel 0.5 2 0.4

[poi-cos]
kind = poisson
K = 2
N = 3
p = 3
v = 0.4
f = cospos

[tal]
kind = talenti
K = 2
N = 3
p = 2
v = 0.5
f = const 1
n = 256

[sob]
kind = sobolev
K = 2
N = 3
p = 2
v = 0.4
f = const 1
s = 2.5
t = 3

[eig]
kind = eigen
K = 2
N = 3
p = 2
v = 0.5

[hold]
kind = holder
K = 2
N = 3
p = 2
v = 0.4
a = 0.2

[sweep]
kind = stability-sweep
K = 2
N = 3
p = 2
v = 0.4
a_list = 0.1 0.3 0.5
"""

TINY = "[probe]\nkind = model-probe\nK = 2\nN = 3\nn = 5\n"


def read_record(out: Path, name: str) -> dict:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    cp.read_string((out / f"{name}.record").read_text())
    return dict(cp.items(name))


def run_text(base: Path, text: str, monkeypatch) -> Path:
    """Output directory of one run of text at the default tolerances."""
    monkeypatch.delenv("TALENTI_SEED_TOL", raising=False)
    ini = base / "run.ini"
    ini.write_text(text)
    main(["run", str(ini), "--out", str(base / "o")])
    return base / "o"


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture(scope="module")
def mixed_run(tmp_path_factory):
    """Exit code and output directory of one run over every kind."""
    old = os.environ.pop("TALENTI_SEED_TOL", None)
    base = tmp_path_factory.mktemp("cli-mixed")
    ini = base / "mixed.ini"
    ini.write_text(MIXED)
    out = base / "out"
    try:
        code = main(["run", str(ini), "--out", str(out)])
    finally:
        if old is not None:
            os.environ["TALENTI_SEED_TOL"] = old
    return code, out


class TestSourceSpec:
    def test_const(self):
        spec = cli._parse_source("s", "const 2.5")
        assert spec.form == "const" and spec.values == (2.5,)
        assert spec.knots == ()
        assert spec.nonincreasing and spec.step_exact
        out = spec(np.array([0.1, 1.0]))
        assert np.all(out == 2.5)
        assert spec(0.3) == 2.5

    def test_cospos(self):
        spec = cli._parse_source("s", "cospos")
        assert spec.knots == (0.5 * math.pi,)
        assert spec.nonincreasing and not spec.step_exact
        assert spec(2.0) == 0.0
        assert spec(0.0) == 1.0

    def test_twolevel(self):
        spec = cli._parse_source("s", "twolevel 2 0.5 0.3")
        assert spec.values == (2.0, 0.5, 0.3)
        assert spec.knots == (0.3,)
        assert spec.nonincreasing
        assert spec(0.1) == 2.0 and spec(0.5) == 0.5

    def test_twolevel_reversed_flag(self):
        spec = cli._parse_source("s", "twolevel 0.5 2 0.3")
        assert not spec.nonincreasing and spec.step_exact

    def test_mass_step_integral_exact(self):
        ival = model_for(2.0, 3.0)
        spec = cli._parse_source("s", "twolevel 2 0.5 0.3")
        r1 = 1.1
        step = spec.mass_step(ival, r1)
        m1 = float(ival.cumulative(0.3))
        ball = float(ival.cumulative(r1))
        assert step.integral(m1) == pytest.approx(2.0 * m1, rel=1e-15)
        assert step.integral(ball) == pytest.approx(
            2.0 * m1 + 0.5 * (ball - m1), rel=1e-15)
        # beyond the ball the level is zero
        assert step.integral(ball + 0.1) == step.integral(ball)

    def test_mass_step_split_outside_ball(self):
        ival = model_for(2.0, 3.0)
        spec = cli._parse_source("s", "twolevel 2 0.5 3")
        step = spec.mass_step(ival, 1.0)
        ball = float(ival.cumulative(1.0))
        assert step.integral(ball) == pytest.approx(2.0 * ball, rel=1e-15)

    def test_model_space_is_the_shared_model(self):
        params = {"K": 2.0, "N": 3.0, "p": 2.0, "v": 0.4, "a": 0.0}
        assert cli._space_for(params) is model_for(2.0, 3.0)

    def test_mass_step_refuses_smooth_source(self):
        ival = model_for(2.0, 3.0)
        spec = cli._parse_source("s", "cospos")
        with pytest.raises(ValueError):
            spec.mass_step(ival, 1.0)

    @pytest.mark.parametrize("raw", [
        "", "const", "const -1", "const x", "cospos 1",
        "twolevel 1 2", "twolevel 1 2 0", "twolevel -1 2 0.3", "gauss 1",
    ])
    def test_bad_specs(self, raw):
        with pytest.raises(ParseError):
            cli._parse_source("s", raw)


class TestParsing:
    def test_defaults_filled(self):
        scs = parse_scenarios_text(
            "[t]\nkind = talenti\nK = 2\nN = 3\np = 2\nv = 0.4\n"
            "f = const 1\n", "mem")
        assert len(scs) == 1
        sc = scs[0]
        assert sc.kind == "talenti"
        assert sc.params["a"] == 0.0
        assert sc.params["r_list"] == (1.0, 1.5, 2.0)
        assert sc.params["n"] == 2048
        assert sc.params["tol_scale"] == 1.0

    def test_custom_r_list(self):
        scs = parse_scenarios_text(
            "[t]\nkind = poisson\nK = 2\nN = 3\np = 3\nv = 0.4\n"
            "f = const 1\nr_list = 1, 1.25, 2.5\n", "mem")
        assert scs[0].params["r_list"] == (1.0, 1.25, 2.5)

    def test_sections_keep_file_order(self):
        scs = parse_scenarios_text(
            "[b]\nkind = model-probe\nK = 2\nN = 3\n\n"
            "[a]\nkind = model-probe\nK = 2\nN = 3\n", "mem")
        assert [sc.name for sc in scs] == ["b", "a"]

    @pytest.mark.parametrize("body,needle", [
        ("kind = talenti\nK = 2\nN = 3\np = 2\nv = 1.2\nf = const 1",
         "v = 1.2"),
        ("kind = talenti\nN = 3\np = 2\nv = 0.4\nf = const 1",
         "K: required key is missing"),
        ("kind = talenti\nK = 2\nN = 3\np = 2\nv = 0.4\nf = const 1\n"
         "bogus = 1", "bogus: unknown key"),
        ("kind = warp\nK = 2\nN = 3", "unknown kind"),
        ("K = 2\nN = 3", "kind: required key is missing"),
        ("kind = eigen\nK = 2\nN = 3\np = 2\nv = 0.4\na = 2", "a = 2"),
        ("kind = poisson\nK = 2\nN = 3\np = 2\nv = 0.4\nf = const 1\n"
         "r_list = 2, 1", "increase strictly"),
        ("kind = poisson\nK = 2\nN = 3\np = 2\nv = 0.4\nf = const 1\n"
         "r_list = 0.5", "lie in [1, p]"),
        ("kind = model-probe\nK = 2\nN = 3\nn = 1", "at least 2"),
        ("kind = model-probe\nK = 2\nN = 3\ntol_scale = 0", "tol_scale"),
        ("kind = model-probe\nK = abc\nN = 3", "not a number"),
        ("kind = model-probe\nK = nan\nN = 3", "not a finite number"),
        ("kind = sobolev\nK = 2\nN = 3\np = 2\nv = 0.4\nf = const 1\n"
         "s = 0", "s = 0"),
        ("kind = holder\nK = 2\nN = 3\np = 2\nv = 0.4\nt_grid = 0.5",
         "at least p - 1"),
        ("kind = stability-sweep\nK = 2\nN = 3\np = 2\nv = 0.4\n"
         "a_list = 0.2", "at least two shifts"),
        ("kind = stability-sweep\nK = 2\nN = 3\np = 2\nv = 0.4\n"
         "Q = 0.5, 2", "exceed p - 1"),
    ])
    def test_parse_errors_name_the_field(self, body, needle):
        with pytest.raises(ParseError, match=None) as err:
            parse_scenarios_text(f"[bad]\n{body}\n", "mem")
        assert needle in str(err.value)
        assert "[bad]" in str(err.value) or "bad" in str(err.value)

    def test_duplicate_section_rejected(self):
        text = TINY + TINY
        with pytest.raises(ParseError):
            parse_scenarios_text(text, "mem")

    def test_default_section_rejected(self):
        with pytest.raises(ParseError, match="DEFAULT"):
            parse_scenarios_text("[DEFAULT]\nK = 2\n" + TINY, "mem")

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError, match="no scenario sections"):
            parse_scenarios_text("# nothing here\n", "mem")

    def test_reserved_and_malformed_names(self):
        with pytest.raises(ParseError):
            parse_scenarios_text(
                "[summary]\nkind = model-probe\nK = 2\nN = 3\n", "mem")
        with pytest.raises(ParseError):
            parse_scenarios_text(
                "[up/../down]\nkind = model-probe\nK = 2\nN = 3\n", "mem")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenarios(tmp_path / "nope.ini")

    def test_colliding_output_files_rejected(self):
        # [x] writes x-spectrum.csv, the main table of [x-spectrum]
        text = ("[x]\nkind = eigen\nK = 2\nN = 3\np = 2\nv = 0.5\n\n"
                "[x-spectrum]\nkind = model-probe\nK = 2\nN = 3\n")
        with pytest.raises(ParseError) as err:
            parse_scenarios_text(text, "mem")
        msg = str(err.value)
        assert "x-spectrum.csv" in msg
        assert "[x]" in msg and "[x-spectrum]" in msg


class TestSuites:
    def test_names_stable_and_nonempty(self):
        names = list_builtin_suites()
        assert names == ("sharpness", "talenti-shifted-cap",
                         "eigen-analytic")
        assert names == list_builtin_suites()

    def test_sharpness_covers_the_grid(self):
        scs = suite_scenarios("sharpness")
        assert len(scs) == 12
        combos = {(sc.params["N"], sc.params["p"], sc.params["f"].form)
                  for sc in scs}
        assert combos == {(N, p, f) for N in (3.0, 4.0)
                          for p in (1.5, 2.0, 3.0)
                          for f in ("const", "cospos")}
        assert all(sc.kind == "talenti" and sc.params["a"] == 0.0
                   and sc.params["n"] == 4096 for sc in scs)

    def test_shifted_cap_suite(self):
        scs = suite_scenarios("talenti-shifted-cap")
        assert len(scs) == 4
        combos = {(sc.params["a"], sc.params["v"]) for sc in scs}
        assert combos == {(a, v) for a in (0.2, 0.3) for v in (0.3, 0.5)}

    def test_eigen_suite(self):
        scs = suite_scenarios("eigen-analytic")
        assert [sc.params["N"] for sc in scs] == [3.0, 4.0, 5.0]
        assert all(sc.params["K"] == sc.params["N"] - 1.0 and
                   sc.params["v"] == 0.5 for sc in scs)

    def test_unknown_suite(self):
        with pytest.raises(ParseError, match="unknown suite"):
            suite_scenarios("nope")

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(list_builtin_suites())


class TestMixedRun:
    def test_all_pass(self, mixed_run):
        code, out = mixed_run
        assert code == 0
        assert (out / "summary.record").exists()

    def test_summary(self, mixed_run):
        _, out = mixed_run
        block = read_record(out, "summary")
        assert block["status"] == "pass"
        assert block["scenarios"] == "10"
        assert block["failed"] == "0"
        assert block["scenario.sweep"] == "pass"

    def test_record_shape(self, mixed_run):
        _, out = mixed_run
        block = read_record(out, "tal")
        assert block["kind"] == "talenti"
        assert block["status"] == "pass"
        assert block["kernel"].startswith("talenti-kit ")
        assert block["param.f"] == "const 1"
        assert block["param.r_list"] == "1,1.5,2"
        assert float(block["wall_time_s"]) > 0.0

    def test_every_check_exactly_once(self, mixed_run):
        _, out = mixed_run
        for rec in out.glob("*.record"):
            if rec.name == "summary.record":
                continue
            keys = [line.split(" = ")[0]
                    for line in rec.read_text().splitlines()
                    if line.startswith("check.")]
            assert keys and len(keys) == len(set(keys)), rec.name

    def test_all_slacks_nonnegative(self, mixed_run):
        _, out = mixed_run
        for name in ("probe", "sym", "poi-const", "tal", "sob", "eig",
                     "hold", "sweep"):
            block = read_record(out, name)
            checks = {k: v for k, v in block.items()
                      if k.startswith("check.")}
            assert checks, name
            for key, val in checks.items():
                word, _, slack = val.partition(" slack = ")
                assert word == "pass", (name, key)
                assert float(slack) >= 0.0, (name, key)

    def test_poisson_check_menus(self, mixed_run):
        _, out = mixed_run
        const = read_record(out, "poi-const")
        assert "check.route-agreement" in const
        assert "check.gradient-identity-r1.5" in const
        rev = read_record(out, "poi-rev")
        assert "check.gradient-identity-r1.25" in rev
        assert "check.route-agreement" not in rev
        cos = read_record(out, "poi-cos")
        assert list(k for k in cos if k.startswith("check.")) == \
            ["check.weak-residual"]

    def test_model_talenti_has_sharpness(self, mixed_run):
        _, out = mixed_run
        block = read_record(out, "tal")
        assert "check.sharpness" in block
        assert "check.levy-gromov" in block
        assert "check.gradient-r2" in block

    def test_eigen_analytic_anchor(self, mixed_run):
        _, out = mixed_run
        block = read_record(out, "eig")
        assert "check.eigenvalue-analytic" in block
        assert "check.cosine-profile" in block
        assert "check.model-equality" in block
        header, rows = read_csv(out / "eig-spectrum.csv")
        assert header == ["lambda_instance", "lambda_model", "margin"]
        lam = float(rows[0][0])
        assert lam == pytest.approx(3.0, rel=1e-6)

    def test_sobolev_table_shows_the_flip(self, mixed_run):
        _, out = mixed_run
        block = read_record(out, "sob")
        assert block["check.critical-at-divergent"].startswith("pass")
        header, rows = read_csv(out / "sob.csv")
        assert header == ["s", "t", "c1", "c2"]
        c1s = {float(r[0]): r[2] for r in rows}
        assert c1s[1.5] == "inf"
        assert float(c1s[3.0]) < math.inf
        assert all(r[1] == "3" for r in rows)
        # c1 flips at exactly s = N/p: inf at and below, finite above
        crit = 3.0 / 2.0
        assert crit in c1s
        below = [c1 for s, c1 in c1s.items() if s <= crit]
        above = [c1 for s, c1 in c1s.items() if s > crit]
        assert below and above
        assert all(c1 == "inf" for c1 in below)
        assert all(math.isfinite(float(c1)) and float(c1) > 0.0
                   for c1 in above)

    def test_sweep_table_monotone(self, mixed_run):
        _, out = mixed_run
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["a", "diameter_deficit", "delta", "lambda",
                          "alpha", "delta_q2", "delta_q4"]
        deltas = [float(r[2]) for r in rows]
        assert len(deltas) == 3
        assert deltas == sorted(deltas)
        assert deltas[0] >= 0.0

    def test_sweep_per_q_columns(self, mixed_run):
        _, out = mixed_run
        _, rows = read_csv(out / "sweep.csv")
        for row in rows:
            lam, alpha, *per_q = map(float, row[3:])
            assert float(row[2]) == max(per_q)
            assert lam > 0.0 and 0.0 < alpha <= 0.4
        lams = [float(r[3]) for r in rows]
        assert lams == sorted(lams)

    def test_holder_tables(self, mixed_run):
        _, out = mixed_run
        header, rows = read_csv(out / "hold.csv")
        assert header == ["t", "ratio_instance", "ratio_model"]
        assert [float(r[0]) for r in rows] == [1.0, 2.0, 5.0]
        header, rows = read_csv(out / "hold-chiti.csv")
        assert header == ["alpha", "crossing", "violation", "delta"]
        assert 0.0 < float(rows[0][0]) < 0.4

    def test_csv_cells_roundtrip_17g(self, mixed_run):
        _, out = mixed_run
        for path in out.glob("*.csv"):
            _, rows = read_csv(path)
            for row in rows:
                for cell in row:
                    if cell == "" or not _numeric(cell):
                        continue
                    assert f"{float(cell):.17g}" == cell, (path.name, cell)


def _numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


class TestDeterminism:
    TEXT = (TINY + "\n"
            "[sym]\nkind = symmetrize\nK = 2\nN = 3\nv = 0.4\n"
            "f = twolevel 2 0.5 0.3\n\n"
            "[poi]\nkind = poisson\nK = 2\nN = 3\np = 2\nv = 0.4\n"
            "f = const 1\n")

    def _run(self, base, tag, jobs=1):
        ini = base / "d.ini"
        if not ini.exists():
            ini.write_text(self.TEXT)
        out = base / tag
        code = main(["run", str(ini), "--out", str(out),
                     "--jobs", str(jobs)])
        assert code == 0
        return out

    def test_reruns_are_byte_identical(self, tmp_path):
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        for csv in sorted(a.glob("*.csv")):
            assert csv.read_bytes() == (b / csv.name).read_bytes()

    def test_records_differ_only_in_wall_time(self, tmp_path):
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        for rec in sorted(a.glob("*.record")):
            la = [x for x in rec.read_text().splitlines()
                  if not x.startswith("wall_time_s")]
            lb = [x for x in (b / rec.name).read_text().splitlines()
                  if not x.startswith("wall_time_s")]
            assert la == lb

    def test_parallel_matches_serial(self, tmp_path):
        a = self._run(tmp_path, "serial", jobs=1)
        b = self._run(tmp_path, "parallel", jobs=3)
        for csv in sorted(a.glob("*.csv")):
            assert csv.read_bytes() == (b / csv.name).read_bytes()
        sa = (a / "summary.record").read_text()
        sb = (b / "summary.record").read_text()
        assert sa == sb


class TestCallOrder:
    """A scenario's tables do not depend on what ran before it."""

    HOLDER = ("[hold]\nkind = holder\nK = 2\nN = 3\np = 2\nv = 0.4\n"
              "a = 0.3\n\n")
    SWEEP = ("[sweep]\nkind = stability-sweep\nK = 2\nN = 3\np = 2\n"
             "v = 0.4\na_list = 0.1 0.2 0.3 0.4\nQ = 2 4\n")

    def _sweep_csv(self, base, tag, text, monkeypatch, jobs=1):
        ini = base / f"{tag}.ini"
        ini.write_text(text)
        main(["run", str(ini), "--out", str(base / tag),
              "--jobs", str(jobs)])
        return (base / tag / "sweep.csv").read_bytes()

    def test_sweep_after_holder_matches_sweep_alone(self, tmp_path,
                                                    monkeypatch):
        alone = self._sweep_csv(tmp_path, "alone", self.SWEEP, monkeypatch)
        after = self._sweep_csv(tmp_path, "after", self.HOLDER + self.SWEEP,
                                monkeypatch)
        both = self._sweep_csv(tmp_path, "jobs2", self.HOLDER + self.SWEEP,
                               monkeypatch, jobs=2)
        assert after == alone
        assert both == alone


class TestSharedSolves:
    """Runners reuse what the library already computed."""

    @staticmethod
    def _count(monkeypatch, mod, names, calls):
        # wraps each name wherever the kit binds it
        for name in names:
            real = getattr(mod, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append((_name, args))
                return _real(*args, **kwargs)

            for owner in (mod, cli):
                if getattr(owner, name, None) is real:
                    monkeypatch.setattr(owner, name, counting)

    def test_holder_solves_two_eigenpairs(self, tmp_path, monkeypatch):
        # the model pair at v and the instance pair; the model pair at
        # alpha comes from the integration that finds alpha
        calls = []
        self._count(monkeypatch, eigen, ["first_eigenpair"], calls)
        out = run_text(tmp_path, TestCallOrder.HOLDER, monkeypatch)
        assert read_record(out, "hold")["status"] == "pass"
        assert len(calls) == 2

    def test_sweep_solves_one_model_pair(self, tmp_path, monkeypatch):
        # the model pair at v once, then one instance pair per shift;
        # every shift's alpha_from_lambda reuses the pair at v
        calls = []
        self._count(monkeypatch, eigen, ["first_eigenpair", "lp_norm"],
                    calls)
        out = run_text(tmp_path, TestCallOrder.SWEEP, monkeypatch)
        assert read_record(out, "sweep")["status"] == "pass"
        names = [name for name, _ in calls]
        assert names.count("first_eigenpair") == 4 + 1
        # per shift: both pairs at p - 1 and at each of the two Q
        assert names.count("lp_norm") == 4 * 2 * 3

    def test_holder_norms_each_pair_once_per_exponent(self, tmp_path,
                                                      monkeypatch):
        # reverse_holder's norms at the 3 exponents of the default t_grid;
        # its deficit and chiti_compare's matched scale reuse them
        calls = []
        self._count(monkeypatch, eigen, ["lp_norm"], calls)
        out = run_text(tmp_path, TestCallOrder.HOLDER, monkeypatch)
        assert read_record(out, "hold")["status"] == "pass"
        assert len(calls) == 2 * 3

    def test_sobolev_computes_each_constant_once(self, tmp_path, monkeypatch):
        # the README example: the row at s reuses the check's c2
        calls = []
        self._count(monkeypatch, sobolev_embed,
                    ["c1_constant", "c2_constant"], calls)
        run_text(tmp_path, "[emb]\nkind = sobolev\nK = 2\nN = 3\np = 2\n"
                 "v = 0.5\nf = const 1\ns = 2.5\nt = 2\n", monkeypatch)
        for name in ("c1_constant", "c2_constant"):
            ss = [args[4] for n, args in calls if n == name]
            assert sorted(ss) == sorted(set(ss))
            assert len(ss) == 5 and 2.5 in ss


class TestBoundaryZero:
    """The eigen check gates the integrated z(r_v), not the pinned 0."""

    CAP = "[eig]\nkind = eigen\nK = 2\nN = 3\np = 2\nv = 0.4\na = 0.3\n"

    def _slack(self, tmp_path, monkeypatch, extra=""):
        out = run_text(tmp_path, self.CAP + extra, monkeypatch)
        word, *_, slack = read_record(out, "eig")[
            "check.boundary-zero"].split()
        return word, float(slack)

    def test_tiny_scale_fails(self, tmp_path, monkeypatch):
        word, _ = self._slack(tmp_path, monkeypatch, "tol_scale = 1e-30\n")
        assert word == "fail"

    def test_slack_is_budget_minus_end_value(self, tmp_path, monkeypatch):
        word, slack = self._slack(tmp_path, monkeypatch)
        space = make_shifted_cap(2.0, 3.0, 0.3, 0.4)
        z_end = eigen.faber_krahn_check(space, 0.4, 2.0).instance.z_end
        assert word == "pass"
        assert z_end != 0.0
        assert slack == 1e-6 - abs(z_end)


class TestUnitMass:
    """model-probe gates the model's quadrature normalizer c against its
    closed form."""

    def _slack(self, tmp_path, monkeypatch, extra=""):
        out = run_text(tmp_path, TINY + extra, monkeypatch)
        word, *_, slack = read_record(out, "probe")[
            "check.unit-mass"].split()
        return word, float(slack)

    def test_tiny_scale_fails(self, tmp_path, monkeypatch):
        word, _ = self._slack(tmp_path, monkeypatch, "tol_scale = 1e-30\n")
        assert word == "fail"

    def test_slack_is_budget_minus_closed_form_gap(self, tmp_path,
                                                   monkeypatch):
        # K = 2, N = 3: c = int_0^pi sin(t)**2 dt = pi/2 in closed form, so
        # a normalizer off by 4e-10 leaves 6e-10 of the 1e-9 budget
        off = ModelSpace(2.0, 3.0)
        off.c = 0.5 * math.pi * (1.0 + 4e-10)
        monkeypatch.setattr(cli, "model_for", lambda K, N: off)
        word, slack = self._slack(tmp_path, monkeypatch)
        assert word == "pass"
        assert slack == pytest.approx(6e-10, abs=1e-15)


class TestExitCodes:
    def test_parse_error_is_2_and_names_field(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[bad]\nkind = talenti\nK = 2\nN = 3\np = 2\n"
                       "v = 1.2\nf = const 1\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "v = 1.2" in err and "bad" in err

    def test_parse_error_is_the_library_type(self, tmp_path):
        assert cli.ParseError is errors.ParseError
        ini = tmp_path / "bad.ini"
        ini.write_text("[bad]\nkind = eigen\nK = 2\nN = 3\np = x\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "o")]) == 2

    def test_shift_at_the_cap_bound_is_2(self, tmp_path, capsys):
        # half the segment length, to the bit that make_shifted_cap uses
        ini = tmp_path / "edge.ini"
        ini.write_text("[edge]\nkind = eigen\nK = 3.9\nN = 1.5\np = 2\n"
                       "v = 0.4\na = 0.5624353068521656\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "o")]) == 2
        assert "a = 0.5624353068521656" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_suite_is_2(self, tmp_path):
        assert main(["suite", "nope", "--out", str(tmp_path / "o")]) == 2

    def test_bad_jobs_is_2(self, tmp_path):
        ini = tmp_path / "t.ini"
        ini.write_text(TINY)
        assert main(["run", str(ini), "--out", str(tmp_path / "o"),
                     "--jobs", "0"]) == 2

    def test_env_override_failure_is_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TALENTI_SEED_TOL", "1e-300")
        ini = tmp_path / "t.ini"
        ini.write_text(TINY)
        out = tmp_path / "o"
        assert main(["run", str(ini), "--out", str(out)]) == 1
        block = read_record(out, "probe")
        assert block["status"] == "fail"

    def test_env_widening_keeps_pass(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TALENTI_SEED_TOL", "100")
        ini = tmp_path / "t.ini"
        ini.write_text(TINY)
        assert main(["run", str(ini), "--out", str(tmp_path / "o")]) == 0

    def test_malformed_env_is_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TALENTI_SEED_TOL", "banana")
        ini = tmp_path / "t.ini"
        ini.write_text(TINY)
        assert main(["run", str(ini), "--out", str(tmp_path / "o")]) == 2

    def test_tiny_tol_scale_fails_run(self, tmp_path):
        ini = tmp_path / "t.ini"
        ini.write_text(TINY.rstrip() + "\ntol_scale = 1e-300\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "o")]) == 1

    def test_library_error_recorded_as_failure(self, tmp_path, monkeypatch):
        def boom(sc, budget):
            raise RuntimeError("synthetic kernel failure")

        monkeypatch.setitem(cli._KINDS, "model-probe",
                            cli._KINDS["model-probe"]._replace(run=boom))
        ini = tmp_path / "t.ini"
        ini.write_text(TINY)
        out = tmp_path / "o"
        assert main(["run", str(ini), "--out", str(out)]) == 1
        text = (out / "probe.record").read_text()
        assert "error = RuntimeError: synthetic kernel failure" in text
        assert "status = fail" in text
        block = read_record(out, "summary")
        assert block["status"] == "fail"


def _fresh(code: str, *args: str) -> str:
    """Standard output of code run by a fresh interpreter on the kit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("TALENTI_SEED_TOL", None)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


# one small scenario per kind, each on the kind's widest path: caps,
# step sources jumping inside the domain, the c2 route of sobolev
KIND_CASES = {
    "model-probe": "K = 2\nN = 3\nn = 9",
    "symmetrize": "K = 2\nN = 3\nv = 0.4\nf = twolevel 2 0.5 0.3",
    "poisson": "K = 2\nN = 3\np = 2\nv = 0.4\na = 0.3\n"
               "f = twolevel 2 0.5 0.25",
    "talenti": "K = 2\nN = 3\np = 2\nv = 0.4\na = 0.3\n"
               "f = twolevel 2 0.5 0.25\nn = 256",
    "eigen": "K = 2\nN = 3\np = 2\nv = 0.4\na = 0.3",
    "holder": "K = 2\nN = 3\np = 2\nv = 0.4\na = 0.2",
    "sobolev": "K = 2\nN = 3\np = 2\nv = 0.4\nf = twolevel 2 0.5 0.25\n"
               "s = 1.2\nt = 2",
    "stability-sweep": "K = 2\nN = 3\np = 2\nv = 0.4\na_list = 0.1 0.3",
}


def _case(kind: str) -> str:
    return f"[case]\nkind = {kind}\n{KIND_CASES[kind]}\n"


# a fresh interpreter parses argv[1], runs it into argv[2] and prints
# the record's error, the scipy and numpy.ma modules the run imported,
# and whether any scipy module is loaded at the end
_PARSE_THEN_RUN = """
import json, sys
from talenti_kit import cli
scenarios = cli.parse_scenarios_text(sys.argv[1], "kind")
before = set(sys.modules)
rec, = cli.run_scenarios(scenarios, sys.argv[2])
late = [m for m in set(sys.modules) - before
        if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]]
scipy = any(m.split(".")[0] == "scipy" for m in sys.modules)
print(json.dumps([rec.error, sorted(late), scipy]))
"""


class TestImportCost:
    def test_kit_modules_import_no_scipy(self):
        code = ("import importlib, pkgutil, sys, talenti_kit\n"
                "for m in pkgutil.iter_modules(talenti_kit.__path__):\n"
                "    importlib.import_module('talenti_kit.' + m.name)\n"
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        assert _fresh(code) == "[]"

    @pytest.mark.parametrize("kind", sorted(cli._KINDS))
    def test_parse_loads_what_the_run_needs(self, kind, tmp_path):
        # the kind's scipy subpackage loads at parse time, on the main
        # thread; the run itself imports no scipy and no numpy.ma
        error, late, scipy = json.loads(
            _fresh(_PARSE_THEN_RUN, _case(kind), str(tmp_path)))
        assert error == ""
        assert late == []
        assert scipy == (cli._KINDS[kind].scipy is not None)

    def test_talenti_runs_with_scipy_blocked(self, tmp_path):
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from talenti_kit import cli\n"
                "rec, = cli.run_scenarios(cli.parse_scenarios_text("
                "sys.argv[1], 'case'), sys.argv[2])\n"
                "print(rec.passed, rec.error)")
        assert _fresh(code, _case("talenti"), str(tmp_path)) == "True"


class TestRankCorrelation:
    """The sweep's rho against scipy.stats.spearmanr, bit for bit."""

    @staticmethod
    def _spearman(ys):
        from scipy.stats import spearmanr
        xs = 0.05 * np.arange(1.0, len(ys) + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant input warns
            return float(spearmanr(xs, ys)[0])

    def test_ties_match_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for trial in range(1200):
            n = 2 + trial % 12
            if trial % 3 == 0:
                ys = rng.random(n)
            else:  # few levels, so most vectors have ties
                ys = 0.1 * rng.integers(0, 1 + trial % 4, n)
            got, want = cli._rank_correlation(ys), self._spearman(ys)
            if math.isnan(want):
                assert math.isnan(got), ys
            else:
                assert got.hex() == want.hex(), ys

    def test_constant_and_nan_input_give_nan(self):
        for ys in ([0.3, 0.3, 0.3], [1.0, 1.0], [0.1, math.nan, 0.2]):
            assert math.isnan(self._spearman(ys))
            assert math.isnan(cli._rank_correlation(ys))


class TestWriteCsv:
    """A table is one sequence of cells per header entry; the bytes are
    those of _fmt applied cell by cell, whichever template a block
    takes."""

    MIXED = (None, "s", 7, np.int64(-8), 0.1, math.inf, -math.inf,
             math.nan, 0.0, -0.0, 2**60)

    @staticmethod
    def _reference(header, columns) -> bytes:
        lines = [",".join(header)]
        lines += [",".join(cli._fmt(x) for x in row) for row in zip(*columns)]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def _check(self, path, header, columns):
        cli._write_csv(path, header, columns)
        assert path.read_bytes() == self._reference(header, columns)

    def test_bytes_match_per_cell_reference(self, tmp_path):
        block = cli._CSV_BLOCK
        n = 2 * block + 3
        rng = np.random.default_rng(7)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[[0, block - 1, block, n - 1]] = (-0.0, math.nan, math.inf,
                                                -math.inf)
        mixed = [float(x) for x in rng.standard_normal(n)]
        # the mixed cells straddle the first block boundary; the second
        # block ends in np.float64 cells and the last block is all floats
        k = len(self.MIXED)
        mixed[block - k // 2:block - k // 2 + k] = self.MIXED
        mixed[2 * block - 2:2 * block] = [np.float64(1.0 / 3.0),
                                          np.float64(-0.0)]
        header = ("x", "mixed")
        self._check(tmp_path / "blocks.csv", header, (floats, mixed))
        self._check(tmp_path / "empty.csv", header, (np.empty(0), []))

    def test_mixed_types_in_every_column(self, tmp_path):
        rows = [
            (None, "a", 1, np.int64(2), 0.1, np.float64(1.0 / 3.0), 1, -0.0),
            ("x", None, -3, np.int64(-4), math.inf, np.float64(math.nan),
             2.5, 0.0),
            ("", "y", 10**20, np.int64(0), -math.inf, 1e-300, 2**60, -0.0),
            ("z", "", 0, np.int64(7), 1e300, np.float64(-2.0),
             np.int64(9), np.float64(-0.0)),
        ]
        header = [f"c{i}" for i in range(len(rows[0]))]
        self._check(tmp_path / "mixed.csv", header, tuple(zip(*rows)))

    def test_ragged_table_raises(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "short.csv", ("a", "b"), ([1.0, 2.0],))
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "ragged.csv", ("a", "b"),
                           ([1.0, 2.0], [3.0]))


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="needs VmHWM from /proc/self/status")
class TestMemory:
    def test_large_model_probe_stays_small(self, tmp_path):
        # VmHWM, not ru_maxrss: a child process inherits its parent's
        # ru_maxrss across exec, and pytest's own high-water mark would
        # hide the growth
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys\n"
            "from talenti_kit import cli\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        line, = (x for x in fh if x.startswith('VmHWM:'))\n"
            "    return int(line.split()[1]) / 1024.0\n"
            "text = '[big]\\nkind = model-probe\\nK = 2\\nN = 3\\n"
            "n = 150000\\n'\n"
            "scenarios = cli.parse_scenarios_text(text, 'memory')\n"
            "before = hwm()\n"
            "rec, = cli.run_scenarios(scenarios, sys.argv[1])\n"
            "print(rec.passed, hwm() - before)\n")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             env=env, capture_output=True, text=True,
                             check=True)
        passed, grown = out.stdout.split()
        assert passed == "True"
        assert (tmp_path / "big.csv").stat().st_size > 150000 * 3 * 17
        assert float(grown) < 32.0, f"VmHWM grew by {grown} MB"
