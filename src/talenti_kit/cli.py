"""Command-line front end: scenario files in, records and tables out.

A scenario file is flat INI text, one section per scenario:

    [cap-example]
    kind = talenti
    K = 2
    N = 3
    p = 2
    v = 0.4
    a = 0.3
    f = twolevel 2 0.5 0.25

``talenti-kit run FILE`` executes every section and writes, per
scenario, CSV tables (17 significant digits, byte-identical across
reruns) plus a key = value run record listing each check exactly once
with its measured slack; a summary record closes the run.  Exit status
is 0 when every check of every scenario passes, 1 when any check fails
or a scenario aborts inside the library (the record is still written),
and 2 when the input cannot be parsed; parse errors name the offending
section and key.

Sources use a three-word mini language: ``const c`` for a constant
level, ``cospos`` for the positive part of the cosine, and
``twolevel h1 h2 split`` for a two-level step jumping at radius
``split``.  Check slack is reported so that nonnegative means the
check passed; budgets scale with the optional per-scenario
``tol_scale`` key alone, which the record echoes as
``param.tol_scale``.  ``talenti-kit suite NAME`` runs a built-in
scenario pack (``talenti-kit list`` prints the names), ``--jobs N``
runs scenarios in parallel threads, ``--out DIR`` picks the output
folder.  Of the kinds, only ``holder`` and ``stability-sweep``
(``scipy.integrate``) and ``poisson`` (``scipy.interpolate``) need
scipy, and parsing a scenario imports the subpackage its kind needs.
"""

from __future__ import annotations

import argparse
import configparser
import importlib
import math
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .eigen import (alpha_from_lambda, chiti_compare, eigenvalue_enclosure,
                    faber_krahn_check, first_eigenpair, model_eigenpair,
                    reverse_holder, stability_deficits)
from .errors import ParseError
from .model_space import WeightedInterval, sine_power
from .radial_poisson import (RadialProblem, gradient_norm, gradient_norm_mass,
                             solve_explicit, solve_mass_form, weak_residual)
from .rearrangement import StepFunction, decreasing_rearrangement, lp_norm, \
    sample_on_cells
from .sobolev_embed import c1_constant, c2_constant, check_embedding, \
    is_divergent
from .talenti_check import ProblemInstance, make_shifted_cap, model_for, \
    run_comparison

_KERNEL = f"talenti-kit {__version__}"
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


def _fmt(x) -> str:
    """17 significant digits for floats, plain text otherwise."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _bad(name: str, key: str, raw, why: str) -> ParseError:
    return ParseError(f"[{name}] {key} = {raw}: {why}")


def _num(name: str, key: str, raw, cond, why: str,
         allow_inf: bool = False) -> float:
    try:
        val = float(str(raw).strip())
    except ValueError:
        raise _bad(name, key, raw, "not a number") from None
    if math.isnan(val) or (math.isinf(val) and not allow_inf):
        raise _bad(name, key, raw, "not a finite number")
    if not cond(val):
        raise _bad(name, key, raw, why)
    return val


def _int_of(name: str, key: str, raw, lo: int) -> int:
    try:
        val = int(str(raw).strip())
    except ValueError:
        raise _bad(name, key, raw, "not an integer") from None
    if val < lo:
        raise _bad(name, key, raw, f"must be at least {lo}")
    return val


def _pull(name: str, kv: dict, key: str) -> str:
    if key not in kv:
        raise ParseError(f"[{name}] {key}: required key is missing")
    return kv.pop(key)


def _float_list(name: str, key: str, raw: str, cond, why: str):
    toks = raw.replace(",", " ").split()
    if not toks:
        raise _bad(name, key, raw, "must list at least one number")
    vals = tuple(_num(name, key, tok, cond, why) for tok in toks)
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise _bad(name, key, raw, "entries must increase strictly")
    return vals


@dataclass(frozen=True)
class SourceSpec:
    """Parsed right-hand side from the f key of a scenario; calling it
    evaluates the source as a vectorized radial function."""

    text: str
    form: str
    values: tuple[float, ...]

    def __call__(self, t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        if self.form == "const":
            out = np.full(arr.shape, self.values[0])
        elif self.form == "cospos":
            out = np.maximum(np.cos(arr), 0.0)
        else:
            h1, h2, split = self.values
            out = np.where(arr < split, h1, h2)
        return out if np.ndim(t) else float(out[0])

    @property
    def knots(self) -> tuple[float, ...]:
        if self.form == "cospos":
            return (0.5 * math.pi,)
        if self.form == "twolevel":
            return (self.values[2],)
        return ()

    @property
    def nonincreasing(self) -> bool:
        if self.form == "twolevel":
            return self.values[0] >= self.values[1]
        return True

    @property
    def step_exact(self) -> bool:
        return self.form in ("const", "twolevel")

    def mass_step(self, space: WeightedInterval, r1: float) -> StepFunction:
        """The source transported to mass coordinates; step data only."""
        if not self.step_exact:
            raise ValueError("mass transport is exact for step data only")
        ball = float(space.cumulative(r1))
        if self.form == "twolevel" and self.values[2] < r1:
            h1, h2, split = self.values
            m1 = float(space.cumulative(split))
            return StepFunction((m1, ball), (h1, h2, 0.0))
        return StepFunction((ball,), (self.values[0], 0.0))


def _parse_source(name: str, raw: str) -> SourceSpec:
    toks = raw.split()
    form = toks[0] if toks else ""
    if form == "const" and len(toks) == 2:
        c = _num(name, "f", toks[1], lambda x: x >= 0.0,
                 "constant level must be nonnegative")
        return SourceSpec(" ".join(toks), "const", (c,))
    if form == "cospos" and len(toks) == 1:
        return SourceSpec("cospos", "cospos", ())
    if form == "twolevel" and len(toks) == 4:
        h1 = _num(name, "f", toks[1], lambda x: x >= 0.0,
                  "levels must be nonnegative")
        h2 = _num(name, "f", toks[2], lambda x: x >= 0.0,
                  "levels must be nonnegative")
        split = _num(name, "f", toks[3], lambda x: x > 0.0,
                     "jump radius must be positive")
        return SourceSpec(" ".join(toks), "twolevel", (h1, h2, split))
    raise _bad(name, "f", raw,
               "expected 'const c', 'cospos' or 'twolevel h1 h2 split'")


def _geometry(name: str, kv: dict, need_p: bool = True,
              need_v: bool = True) -> dict:
    params = {
        "K": _num(name, "K", _pull(name, kv, "K"),
                  lambda x: x > 0.0, "must be positive"),
        "N": _num(name, "N", _pull(name, kv, "N"),
                  lambda x: x > 1.0, "must exceed 1"),
    }
    if need_p:
        params["p"] = _num(name, "p", _pull(name, kv, "p"),
                           lambda x: x > 1.0, "must exceed 1")
    if need_v:
        params["v"] = _num(name, "v", _pull(name, kv, "v"),
                           lambda x: 0.0 < x < 1.0,
                           "must lie strictly between 0 and 1")
    return params


def _shift(name: str, kv: dict, K: float, N: float) -> float:
    raw = kv.pop("a", None)
    if raw is None:
        return 0.0
    half = 0.5 * sine_power(K, N)[1]
    return _num(name, "a", raw, lambda x: 0.0 <= x < half,
                f"must lie in [0, {half:.6g}) for this K, N")


def _parse_model_probe(name: str, kv: dict) -> dict:
    params = _geometry(name, kv, need_p=False, need_v=False)
    raw = kv.pop("n", None)
    params["n"] = 33 if raw is None else _int_of(name, "n", raw, 2)
    return params


def _parse_symmetrize(name: str, kv: dict) -> dict:
    params = _geometry(name, kv, need_p=False)
    params["f"] = _parse_source(name, _pull(name, kv, "f"))
    raw = kv.pop("n", None)
    params["n"] = 2048 if raw is None else _int_of(name, "n", raw, 16)
    return params


def _parse_shifted(name: str, kv: dict) -> dict:
    """Geometry with p and v, plus the optional cap shift a."""
    params = _geometry(name, kv)
    params["a"] = _shift(name, kv, params["K"], params["N"])
    return params


def _parse_poisson(name: str, kv: dict) -> dict:
    params = _parse_shifted(name, kv)
    params["f"] = _parse_source(name, _pull(name, kv, "f"))
    p = params["p"]
    raw = kv.pop("r_list", None)
    if raw is None:
        params["r_list"] = (1.0, 0.5 * (1.0 + p), p)
    else:
        params["r_list"] = _float_list(name, "r_list", raw,
                                       lambda x: 1.0 <= x <= p,
                                       "entries must lie in [1, p]")
    return params


def _parse_talenti(name: str, kv: dict) -> dict:
    params = _parse_poisson(name, kv)
    raw = kv.pop("n", None)
    params["n"] = 2048 if raw is None else _int_of(name, "n", raw, 64)
    return params


def _parse_holder(name: str, kv: dict) -> dict:
    params = _parse_shifted(name, kv)
    r = params["p"] - 1.0
    raw = kv.pop("t_grid", None)
    if raw is None:
        params["t_grid"] = (r, 2.0 * r, 5.0 * r)
    else:
        params["t_grid"] = _float_list(name, "t_grid", raw,
                                       lambda x: x >= r,
                                       "entries must be at least p - 1")
    return params


def _parse_sobolev(name: str, kv: dict) -> dict:
    params = _parse_shifted(name, kv)
    params["f"] = _parse_source(name, _pull(name, kv, "f"))
    params["s"] = _num(name, "s", _pull(name, kv, "s"),
                       lambda x: x > 0.0, "must be positive", allow_inf=True)
    raw = kv.pop("t", None)
    if raw is not None:
        params["t"] = _num(name, "t", raw, lambda x: x > 0.0,
                           "must be positive")
    return params


def _parse_sweep(name: str, kv: dict) -> dict:
    params = _geometry(name, kv)
    p = params["p"]
    half = 0.5 * sine_power(params["K"], params["N"])[1]
    raw = kv.pop("a_list", None)
    if raw is None:
        params["a_list"] = tuple(0.05 * k for k in range(1, 11))
        if params["a_list"][-1] >= half:
            raise ParseError(f"[{name}] a_list: default sweep reaches the "
                             f"shift bound {half:.6g}; pass a_list explicitly")
    else:
        params["a_list"] = _float_list(name, "a_list", raw,
                                       lambda x: 0.0 <= x < half,
                                       f"entries must lie in [0, {half:.6g})")
    if len(params["a_list"]) < 2:
        raise ParseError(f"[{name}] a_list: need at least two shifts "
                         "to rank the sweep")
    raw = kv.pop("Q", None)
    if raw is None:
        params["Q"] = (p, 2.0 * p)
    else:
        params["Q"] = _float_list(name, "Q", raw, lambda x: x > p - 1.0,
                                  "entries must exceed p - 1")
    return params


@dataclass(frozen=True)
class Scenario:
    """One parsed section: a kind plus its typed parameters."""

    name: str
    kind: str
    params: dict


def _table_files(sc: Scenario) -> list[str]:
    """CSV file names of a scenario, in the order its runner returns
    the tables."""
    return [f"{sc.name}{sfx}.csv"
            for sfx in ("", *_KINDS[sc.kind].suffixes)]


def _parse_scenario(name: str, kv: dict) -> Scenario:
    if not _NAME_RE.match(name) or name == "summary":
        raise ParseError(f"[{name}]: scenario names use letters, digits, "
                         "dots, dashes and underscores (and not 'summary')")
    kind = kv.pop("kind", None)
    if kind is None:
        raise ParseError(f"[{name}] kind: required key is missing")
    kind = kind.strip()
    if kind not in _KINDS:
        raise _bad(name, "kind", kind,
                   "unknown kind; expected one of " + ", ".join(_KINDS))
    raw = kv.pop("tol_scale", None)
    scale = 1.0 if raw is None else _num(name, "tol_scale", raw,
                                         lambda x: x > 0.0,
                                         "must be positive")
    params = _KINDS[kind].parse(name, kv)
    if kv:
        key = sorted(kv)[0]
        raise ParseError(f"[{name}] {key}: unknown key for kind {kind}")
    params["tol_scale"] = scale
    if _KINDS[kind].scipy:
        # here on the main thread, not in the first run's wall time
        importlib.import_module(_KINDS[kind].scipy)
    return Scenario(name, kind, params)


def parse_scenarios_text(text: str, source: str) -> list[Scenario]:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ParseError(f"{source}: {' '.join(str(exc).split())}") from None
    if cp.defaults():
        raise ParseError(f"{source}: [DEFAULT] sections are not supported")
    if not cp.sections():
        raise ParseError(f"{source}: no scenario sections found")
    scenarios = [_parse_scenario(name, dict(cp.items(name)))
                 for name in cp.sections()]
    owner: dict[str, str] = {}
    for sc in scenarios:
        for fname in (f"{sc.name}.record", *_table_files(sc)):
            other = owner.setdefault(fname, sc.name)
            if other != sc.name:
                raise ParseError(f"[{sc.name}]: output file {fname} is "
                                 f"also written by [{other}]")
    return scenarios


def load_scenarios(path) -> list[Scenario]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return parse_scenarios_text(text, str(path))


@dataclass(frozen=True)
class CheckResult:
    """One named check with its measured slack (nonnegative passes)."""

    name: str
    passed: bool
    slack: float


def _check(name: str, slack: float) -> CheckResult:
    return CheckResult(name, bool(slack >= 0.0), float(slack))


def _gate(name: str, ok: bool) -> CheckResult:
    return CheckResult(name, bool(ok), 1.0 if ok else -1.0)


@dataclass(frozen=True)
class RunRecord:
    """Everything one scenario produced, ready to serialize."""

    name: str
    kind: str
    params: dict
    checks: tuple[CheckResult, ...]
    tables: tuple[str, ...]
    wall_time: float
    error: str = ""

    @property
    def passed(self) -> bool:
        return (not self.error and bool(self.checks)
                and all(c.passed for c in self.checks))

    def to_block(self) -> str:
        lines = [f"[{self.name}]",
                 f"kind = {self.kind}",
                 f"status = {'pass' if self.passed else 'fail'}",
                 f"kernel = {_KERNEL}",
                 f"wall_time_s = {_fmt(self.wall_time)}"]
        for key, val in self.params.items():  # in parse order
            if isinstance(val, SourceSpec):
                val = val.text
            elif isinstance(val, tuple):
                val = ",".join(_fmt(x) for x in val)
            lines.append(f"param.{key} = {_fmt(val)}")
        for c in self.checks:
            word = "pass" if c.passed else "fail"
            lines.append(f"check.{c.name} = {word} slack = {_fmt(c.slack)}")
        lines += [f"table.{i} = {t}" for i, t in enumerate(self.tables)]
        if self.error:
            lines.append(f"error = {self.error}")
        return "\n".join(lines) + "\n"


def _space_for(params: dict) -> WeightedInterval:
    if params["a"] > 0.0:
        return make_shifted_cap(params["K"], params["N"], params["a"],
                                params["v"])
    return model_for(params["K"], params["N"])


def _run_model_probe(sc: Scenario, scale: float):
    model = model_for(sc.params["K"], sc.params["N"])
    n = sc.params["n"]
    vs = np.linspace(0.0, 1.0, n + 2)[1:-1]
    radii = np.asarray(model.inverse_cumulative(vs), dtype=float)
    prof = np.asarray(model.density(radii), dtype=float)
    mirror = np.asarray(model.isoperimetric_profile(1.0 - vs), dtype=float)
    # exact mass of the normalized density: the closed form of
    # int_0^L sin(t * sqrt(K/(N-1)))**(N-1) dt over the quadrature c
    K, N = model.K, model.N
    exact = math.sqrt(math.pi * (N - 1.0) / K) * math.exp(
        math.lgamma(0.5 * N) - math.lgamma(0.5 * (N + 1.0)))
    checks = [
        _check("unit-mass", 1e-9 * scale - abs(exact / model.c - 1.0)),
        _check("profile-symmetry",
               1e-8 * scale - float(np.max(np.abs(prof - mirror)))),
        _check("profile-positive", float(np.min(prof))),
        _check("radius-monotone", float(np.min(np.diff(radii)))),
    ]
    return checks, [(("v", "radius", "profile"), (vs, radii, prof))]


def _run_symmetrize(sc: Scenario, scale: float):
    spec = sc.params["f"]
    ival = model_for(sc.params["K"], sc.params["N"])
    r1 = float(ival.inverse_cumulative(sc.params["v"]))
    u = sample_on_cells(spec, ival.cumulative, r1,
                        n_cells=sc.params["n"])
    step = decreasing_rearrangement(u)
    support = float(np.sum(u.measures[np.abs(u.values) > 0.0]))
    n1, n1s = lp_norm(u, 1.0), lp_norm(step, 1.0)
    n2, n2s = lp_norm(u, 2.0), lp_norm(step, 2.0)
    checks = [
        _check("mass-preserved",
               1e-12 * scale * max(1.0, support)
               - abs(step.support_end - support)),
        _check("l1-preserved",
               1e-12 * scale * max(1.0, n1) - abs(n1 - n1s)),
        _check("l2-preserved",
               1e-12 * scale * max(1.0, n2) - abs(n2 - n2s)),
        _check("nonincreasing",
               -float(np.max(np.diff(step.levels), initial=0.0))),
    ]
    # one level per cell; the last cell has no right edge
    edges = [0.0, *map(float, step.breakpoints), None]
    return checks, [(("mass_left", "mass_right", "level"),
                     (edges[:-1], edges[1:], list(map(float, step.levels))))]


def _solve(params: dict):
    """Space, domain radius, radial problem and its explicit solution."""
    spec = params["f"]
    space = _space_for(params)
    r1 = float(space.inverse_cumulative(params["v"]))
    prob = RadialProblem(space=space, p=params["p"], f=spec, r1=r1,
                         f_knots=spec.knots)
    return space, r1, prob, solve_explicit(prob)


def _run_poisson(sc: Scenario, scale: float):
    spec = sc.params["f"]
    space, r1, prob, sol = _solve(sc.params)
    checks = [_check("weak-residual", 1e-6 * scale - weak_residual(sol, prob))]
    if spec.step_exact:
        sharp = spec.mass_step(space, r1)
        for r in sc.params["r_list"]:
            g_phys = gradient_norm(sol, r)
            g_mass = gradient_norm_mass(prob, sharp, r)
            rel = abs(g_phys - g_mass) / max(g_phys, g_mass, 1e-300)
            checks.append(_check(f"gradient-identity-r{_fmt(r)}",
                                 1e-6 * scale - rel))
        if spec.nonincreasing:
            alt = solve_mass_form(prob, sharp)
            xs = np.linspace(0.0, r1, 257)
            gap = float(np.max(np.abs(np.asarray(sol.w_at(xs), dtype=float)
                                      - np.asarray(alt.w_at(xs),
                                                   dtype=float))))
            w_max = max(1.0, float(np.max(np.abs(sol.w))))
            checks.append(_check("route-agreement",
                                 1e-7 * scale * w_max - gap))
    return checks, [(("rho", "w", "wprime"), (sol.grid, sol.w, sol.wprime))]


def _run_talenti(sc: Scenario, scale: float):
    params = sc.params
    spec = params["f"]
    inst = ProblemInstance(space=_space_for(params), p=params["p"],
                           f=spec, v=params["v"], f_knots=spec.knots)
    rep = run_comparison(inst, r_list=params["r_list"], n_check=params["n"])
    checks = [
        _check("pointwise", 1e-8 * scale - rep.pointwise_violation),
        _check("levy-gromov",
               rep.levy_gromov_min_ratio - 1.0 + 1e-8 * scale),
    ]
    for r, (lhs, rhs) in rep.gradient_gaps.items():
        checks.append(_check(f"gradient-r{_fmt(r)}", rhs - lhs + 1e-8 * scale))
    if not math.isnan(rep.sharpness_gap):
        checks.append(_check("sharpness", 1e-6 * scale - rep.sharpness_gap))
    metrics = ["pointwise_violation", "grid_bound", "levy_gromov_min_ratio",
               "sharpness_gap", "sup_u", "origin_gap"]
    values = [getattr(rep, m) for m in metrics]
    for r, (lhs, rhs) in rep.gradient_gaps.items():
        metrics += [f"gradient_lhs_r{_fmt(r)}", f"gradient_rhs_r{_fmt(r)}"]
        values += [lhs, rhs]
    return checks, [(("metric", "value"), (metrics, values))]


def _run_eigen(sc: Scenario, scale: float):
    params = sc.params
    K, N, p, v = params["K"], params["N"], params["p"], params["v"]
    fk = faber_krahn_check(_space_for(params), v, p)
    pair, margin = fk.instance, fk.margin
    # the smallest interval holding both bounds and lam, relative to lam
    lam_lo, lam_hi = eigenvalue_enclosure(pair)
    spread = (max(lam_hi, pair.lam) - min(lam_lo, pair.lam)) / pair.lam
    checks = [
        _check("faber-krahn", margin + 1e-8 * scale),
        _check("eigenvalue-enclosure", 1e-10 * scale - spread),
        _check("rayleigh-consistent",
               1e-6 * scale - abs(pair.rayleigh() - pair.lam) / pair.lam),
    ]
    if params["a"] == 0.0:
        checks.append(_check("model-equality", 1e-6 * scale - abs(margin)))
    # the half-mass model segment with K = N - 1 and p = 2 has the
    # cosine as its first eigenfunction, with eigenvalue exactly N
    if (params["a"] == 0.0 and p == 2.0 and v == 0.5
            and abs(K - (N - 1.0)) <= 1e-12):
        checks.append(_check("eigenvalue-analytic",
                             1e-4 * scale - abs(pair.lam - N) / N))
        tg = np.linspace(0.0, pair.r_alpha, 1025)
        z0 = float(pair.z_at(0.0))
        dist = float(np.max(np.abs(
            np.asarray(pair.z_at(tg), dtype=float) / z0 - np.cos(tg))))
        checks.append(_check("cosine-profile", 1e-4 * scale - dist))
    return checks, [
        (("t", "z", "zprime"), (pair.sol.grid, pair.sol.w, pair.sol.wprime)),
        (("lambda_instance", "lambda_model", "margin"),
         ([pair.lam], [fk.model.lam], [margin])),
    ]


def _run_holder(sc: Scenario, scale: float):
    params = sc.params
    p, v = params["p"], params["v"]
    r = p - 1.0
    fk = faber_krahn_check(_space_for(params), v, p)
    u = fk.instance
    alpha, z = alpha_from_lambda(fk.model, u.lam)
    rep = reverse_holder(u, z, r, params["t_grid"])
    crossing, viol = chiti_compare(u, z, r, scale=rep.scale)
    checks = [
        _check("chiti-ordering", 1e-6 * scale - viol),
        _gate("chiti-crossing",
              0.0 < crossing <= u.r_alpha * (1.0 + 1e-12)),
        _check("deficit-nonnegative", rep.delta),
    ]
    for t in rep.t_grid:
        checks.append(_check(
            f"holder-t{_fmt(t)}",
            rep.ratios_model[t] - rep.ratios_instance[t] + 1e-8 * scale))
    ratios = (list(rep.t_grid),
              [rep.ratios_instance[t] for t in rep.t_grid],
              [rep.ratios_model[t] for t in rep.t_grid])
    return checks, [
        (("t", "ratio_instance", "ratio_model"), ratios),
        (("alpha", "crossing", "violation", "delta"),
         ([alpha], [crossing], [viol], [rep.delta])),
    ]


def _run_sobolev(sc: Scenario, scale: float):
    params = sc.params
    K, N, p = params["K"], params["N"], params["p"]
    s, t = params["s"], params.get("t")
    space, r1, prob, sol = _solve(params)
    emb = check_embedding(prob, sol, s, t)
    vm = float(space.cumulative(r1))
    crit = N / p
    rows = [(si, t, c1_constant(K, N, vm, p, si),
             None if t is None else c2_constant(K, N, vm, p, si, t))
            for si in (crit * (1.0 - 1e-3), crit, crit * (1.0 + 1e-3),
                       2.0 * crit)]
    below, at, above = (is_divergent(row[2]) for row in rows[:3])
    checks = [
        _check("embedding-slack", emb.slack + 1e-8 * scale),
        _gate("critical-below-divergent", below),
        _gate("critical-at-divergent", at),
        _gate("critical-above-finite", not above),
    ]
    # the row at the scenario's own s reuses the constant the check used
    c1 = emb.constant if t is None else c1_constant(K, N, vm, p, s)
    c2 = None if t is None else emb.constant
    rows.append((float(s), t, c1, c2))
    return checks, [
        (("s", "t", "c1", "c2"), tuple(zip(*rows))),
        (("lhs", "rhs", "slack"), ([emb.lhs], [emb.rhs], [emb.slack])),
    ]


def _rank_correlation(ys) -> float:
    """Spearman's rho of ys against strictly increasing shifts, as
    scipy.stats.spearmanr gives it bit for bit (its [1, 0] entry); ties
    take their average rank, constant or nan input gives nan."""
    ys = np.asarray(ys, dtype=float)
    if np.isnan(ys).any() or np.all(ys == ys[0]):
        return math.nan
    _, where, counts = np.unique(ys, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[where]
    return float(np.corrcoef(np.arange(1.0, ys.size + 1), ranks)[1, 0])


def _run_sweep(sc: Scenario, scale: float):
    params = sc.params
    K, N, p, v = params["K"], params["N"], params["p"], params["v"]
    model = model_for(K, N)
    up = model_eigenpair(K, N, p, v)
    rows, deltas = [], []
    for a in params["a_list"]:
        cap = make_shifted_cap(K, N, a, v)
        u = first_eigenpair(cap, v, p)
        alpha, z = alpha_from_lambda(up, u.lam)
        per_q = stability_deficits(u, z, p, params["Q"])
        delta = max(per_q)
        deltas.append(delta)
        rows.append((a, model.L - cap.length, delta, u.lam, alpha, *per_q))
    rho = _rank_correlation(deltas)
    checks = [
        _check("deficit-nonnegative", float(np.min(deltas))),
        _check("monotone-spearman", rho - 1.0 + 1e-12 * scale),
    ]
    header = ("a", "diameter_deficit", "delta", "lambda", "alpha",
              *(f"delta_q{_fmt(q)}" for q in params["Q"]))
    return checks, [(header, tuple(zip(*rows)))]


class _Kind(NamedTuple):
    """A scenario kind: its parser, its runner, the suffixes of the
    tables written after <name>.csv in the order the runner returns
    them, and the scipy subpackage the runner loads, if any."""

    parse: Callable
    run: Callable
    suffixes: tuple[str, ...] = ()
    scipy: str | None = None


_KINDS = {
    "model-probe": _Kind(_parse_model_probe, _run_model_probe),
    "symmetrize": _Kind(_parse_symmetrize, _run_symmetrize),
    "poisson": _Kind(_parse_poisson, _run_poisson,
                     scipy="scipy.interpolate"),
    "talenti": _Kind(_parse_talenti, _run_talenti),
    "eigen": _Kind(_parse_shifted, _run_eigen, ("-spectrum",)),
    "holder": _Kind(_parse_holder, _run_holder, ("-chiti",),
                    "scipy.integrate"),
    "sobolev": _Kind(_parse_sobolev, _run_sobolev, ("-check",)),
    "stability-sweep": _Kind(_parse_sweep, _run_sweep,
                             scipy="scipy.integrate"),
}


# rows formatted by one %-template and written per block
_CSV_BLOCK = 4096


def _block(col, lo: int, hi: int) -> tuple[str, list]:
    """Template spec and cells of col's rows lo..hi-1: floats for %.17g
    (a float ndarray, or cells that are all floats, np.float64 included),
    _fmt strings for %s otherwise; both give _fmt's bytes."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return "%.17g", col[lo:hi].tolist()
    cells = list(col[lo:hi])
    if all(isinstance(x, float) for x in cells):
        return "%.17g", cells
    return "%s", [_fmt(x) for x in cells]


def _write_csv(path: Path, header, columns) -> None:
    """Write a CSV table given as one sequence of cells per header entry.

    Every cell is written as _fmt writes it.  The file is opened once;
    after the header, each block of _CSV_BLOCK rows is one %-template
    applied to the block's cells flattened row-major, so a table costs
    no row tuples and no string object per float cell.
    """
    k = len(columns)
    n = len(columns[0]) if k else 0
    if k != len(header) or any(len(c) != n for c in columns):
        raise ValueError("a table needs one column of equal length "
                         "per header entry")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, n)
            specs, flat = [], [None] * ((hi - lo) * k)
            for i, col in enumerate(columns):
                spec, cells = _block(col, lo, hi)
                specs.append(spec)
                flat[i::k] = cells
            fh.write((",".join(specs) + "\n") * (hi - lo) % tuple(flat))


def _execute(sc: Scenario, out_dir: Path) -> RunRecord:
    start = time.perf_counter()
    checks, tables, error = [], [], ""
    try:
        run = _KINDS[sc.kind].run
        checks, tables = run(sc, sc.params["tol_scale"])
    except Exception as exc:  # library refusals become recorded failures
        error = f"{type(exc).__name__}: {' '.join(str(exc).split())}"
    wall = time.perf_counter() - start
    written = []
    for fname, (header, columns) in zip(_table_files(sc), tables):
        _write_csv(out_dir / fname, header, columns)
        written.append(fname)
    rec = RunRecord(sc.name, sc.kind, sc.params, tuple(checks),
                    tuple(written), wall, error)
    (out_dir / f"{sc.name}.record").write_text(rec.to_block(),
                                               encoding="utf-8")
    return rec


def run_scenarios(scenarios, out_dir, jobs: int = 1,
                  label: str = "scenarios") -> list[RunRecord]:
    """Execute scenarios, write all artifacts, return the records."""
    if not scenarios:
        raise ParseError("no scenarios to run")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(lambda sc: _execute(sc, out), scenarios))
    else:
        records = [_execute(sc, out) for sc in scenarios]
    good = sum(r.passed for r in records)
    lines = ["[summary]",
             f"source = {label}",
             f"kernel = {_KERNEL}",
             f"scenarios = {len(records)}",
             f"passed = {good}",
             f"failed = {len(records) - good}",
             f"status = {'pass' if good == len(records) else 'fail'}"]
    lines += [f"scenario.{r.name} = {'pass' if r.passed else 'fail'}"
              for r in records]
    (out / "summary.record").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")
    return records


def _suite_sharpness() -> str:
    parts = []
    for N in (3, 4):
        for p in ("1.5", "2", "3"):
            for tag, f in (("const", "const 1"), ("cospos", "cospos")):
                parts.append(f"[sharp-N{N}-p{p}-{tag}]\nkind = talenti\n"
                             f"K = {N - 1}\nN = {N}\np = {p}\nv = 0.5\n"
                             f"f = {f}\nn = 4096\n")
    return "\n".join(parts)


def _suite_caps() -> str:
    parts = []
    for a in ("0.2", "0.3"):
        for v in ("0.3", "0.5"):
            parts.append(f"[cap-a{a}-v{v}]\nkind = talenti\nK = 2\nN = 3\n"
                         f"p = 2\nv = {v}\na = {a}\n"
                         f"f = twolevel 2 0.5 0.25\n")
    return "\n".join(parts)


def _suite_eigen() -> str:
    parts = []
    for N in (3, 4, 5):
        parts.append(f"[eigen-model-N{N}]\nkind = eigen\nK = {N - 1}\n"
                     f"N = {N}\np = 2\nv = 0.5\n")
    return "\n".join(parts)


_SUITES = {
    "sharpness": _suite_sharpness(),
    "talenti-shifted-cap": _suite_caps(),
    "eigen-analytic": _suite_eigen(),
}


def list_builtin_suites() -> tuple[str, ...]:
    """Built-in suite names, in their canonical order."""
    return tuple(_SUITES)


def suite_scenarios(name: str) -> list[Scenario]:
    """Parsed scenarios of a built-in suite."""
    text = _SUITES.get(name)
    if text is None:
        raise ParseError(f"unknown suite {name!r}; available: "
                         + ", ".join(_SUITES))
    return parse_scenarios_text(text, f"suite:{name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="talenti-kit",
        description="Scenario runner for the symmetrization comparison kit.")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every scenario in an INI file")
    p_run.add_argument("scenario_file", help="path to the scenario file")
    p_suite = sub.add_parser("suite", help="run a built-in scenario pack")
    p_suite.add_argument("name", help="suite name, see: talenti-kit list")
    for sp in (p_run, p_suite):
        sp.add_argument("--out", default="runs",
                        help="output directory (default: runs)")
        sp.add_argument("--jobs", type=int, default=1,
                        help="scenarios to run in parallel threads")
    sub.add_parser("list", help="print the built-in suite names")
    args = ap.parse_args(argv)

    if args.command == "list":
        for name in list_builtin_suites():
            print(name)
        return 0
    try:
        if args.command == "run":
            scenarios = load_scenarios(args.scenario_file)
            label = str(args.scenario_file)
        else:
            scenarios = suite_scenarios(args.name)
            label = f"suite:{args.name}"
        if args.jobs < 1:
            raise ParseError(f"--jobs = {args.jobs}: must be at least 1")
        records = run_scenarios(scenarios, Path(args.out), args.jobs, label)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        note = f"  [{rec.error}]" if rec.error else ""
        print(f"{rec.name}: {'pass' if rec.passed else 'fail'} "
              f"({rec.wall_time:.2f} s){note}")
    good = sum(r.passed for r in records)
    print(f"{good}/{len(records)} passed; records in {args.out}")
    return 0 if good == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())
