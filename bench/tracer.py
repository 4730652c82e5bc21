"""Per-layer spans and counters, installed from outside the kit.

``install()`` wraps public functions and methods of the kit's modules
with timing and counting wrappers.  A function is replaced in every
kit module that binds it (``cli.solve_explicit`` and
``talenti_check.solve_explicit`` are the same object), methods are
replaced on their classes, so no call path escapes the wrapper.

Spans are aggregated in memory by call path (the chain of span names
from the root), which keeps memory bounded when a scalar density is
called 10^5 times, and written out once by ``Tracer.dump``.  A module's
self time is the time of its spans minus the time of the spans they
contain; the nesting is exact because the runner is single-threaded
(``--jobs 1``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# span name -> metric that sums its outermost time ("" for none)
_TIMED = {
    "cli.parse_scenarios_text": "cli.parse_s",
    "cli._execute": "cli.scenario_s",
    "cli._write_csv": "cli.write_s",
    "talenti_check.run_comparison": "talenti_check.run_comparison_s",
    "talenti_check.make_shifted_cap": "talenti_check.make_shifted_cap_s",
    "eigen.first_eigenpair": "eigen.first_eigenpair_s",
    "eigen.alpha_from_lambda": "eigen.alpha_from_lambda_s",
    "eigen.lp_norm": "eigen.lp_norm_s",
    "sobolev_embed.c1_constant": "sobolev_embed.c1_s",
    "sobolev_embed.c2_constant": "sobolev_embed.c2_s",
    "sobolev_embed.check_embedding": "sobolev_embed.check_embedding_s",
    "radial_poisson.solve_explicit": "radial_poisson.solve_explicit_s",
    "radial_poisson.solve_mass_form": "radial_poisson.solve_mass_form_s",
    "radial_poisson.weak_residual": "radial_poisson.weak_residual_s",
    "radial_poisson.gradient_norm": "radial_poisson.gradient_norm_s",
    "radial_poisson.gradient_norm_mass": "radial_poisson.gradient_norm_s",
    "rearrangement.sample_on_cells": "rearrangement.sample_on_cells_s",
    "rearrangement.decreasing_rearrangement":
        "rearrangement.decreasing_rearrangement_s",
    "numerics.MonotoneTable.__init__": "numerics.table_build_s",
    "numerics.MonotoneTable.cumulative": "numerics.table_cumulative_s",
    "numerics.MonotoneTable.inverse": "numerics.table_inverse_s",
    "numerics.integrate": "numerics.integrate_s",
}

# the names of every per-layer metric the traced run reports
METRICS = [m["name"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text(encoding="utf-8"))["per_layer"]]


class Tracer:
    """Span stack plus call-path aggregates and named counters."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        # path -> [calls, total_s, self_s]
        self.paths: dict[tuple, list] = {}
        self._stack: list[list] = []   # [start, child_s, path]
        self._depth: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn):
        metric = _TIMED.get(name, "")
        module = name.split(".")[0]
        counts, stack, depth, paths = (self.counts, self._stack,
                                       self._depth, self.paths)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = (stack[-1][2] + (name,)) if stack else (name,)
            frame = [0.0, 0.0, path]
            stack.append(frame)
            depth[name] += 1
            frame[0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += dt
                agg = paths.get(path)
                if agg is None:
                    agg = paths[path] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                counts["self:" + module] += dt - frame[1]
                # nested calls of one name (a table whose density reads
                # another table) count their time once, at the outermost
                if metric and depth[name] == 0:
                    counts[metric] += dt

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        out = dict.fromkeys(METRICS, 0.0)
        for key, val in self.counts.items():
            if key.startswith("self:"):
                out[key[5:] + ".self_s"] = val
            elif key in out:
                out[key] = val
        calls = out["numerics.table_inverse_points"]
        out["numerics.inverse_density_points_per_point"] = (
            self.counts["inverse_density_points"] / calls if calls else 0.0)
        del out["trace.overhead_s"]  # set by the parent from two runs
        return out

    def dump(self, path) -> None:
        """Write the call-path aggregates and counters as JSON."""
        spans = [{"path": list(k), "calls": v[0], "total_s": v[1],
                  "self_s": v[2]} for k, v in sorted(self.paths.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh,
                      indent=1)


def _points(x) -> int:
    return int(np.size(x))


def _replace_everywhere(kit_modules, original, replacement) -> int:
    """Rebind every module attribute that is `original`."""
    n = 0
    for mod in kit_modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def install(tracer: Tracer) -> None:
    """Wrap the kit's public calls; import the kit first."""
    from talenti_kit import (cli, eigen, model_space, numerics,
                             radial_poisson, rearrangement, sobolev_embed,
                             talenti_check)
    mods = [cli, eigen, model_space, numerics, radial_poisson,
            rearrangement, sobolev_embed, talenti_check]
    counts = tracer.counts

    def func(mod, attr, wrap_extra=None):
        original = getattr(mod, attr)
        name = f"{mod.__name__.split('.')[-1]}.{attr}"
        inner = wrap_extra(original) if wrap_extra else original
        if not _replace_everywhere(mods, original, tracer.span(name, inner)):
            raise RuntimeError(f"{name} is bound nowhere")

    def method(cls, attr, modname, wrap_extra=None):
        original = getattr(cls, attr)
        name = f"{modname}.{cls.__name__}.{attr}"
        inner = wrap_extra(original) if wrap_extra else original
        setattr(cls, attr, tracer.span(name, inner))

    def counting(calls=None, points=None):
        # points: the size of the first argument after self
        def deco(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                if calls:
                    counts[calls] += 1
                if points:
                    counts[points] += _points(args[1])
                return fn(*args, **kwargs)
            return wrapped
        return deco

    # cli: the root span and the per-scenario and per-table spans
    def run_root(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            records = fn(*args, **kwargs)
            counts["cli.checks"] += sum(len(r.checks) for r in records)
            return records
        return wrapped

    def write_csv(fn):
        @functools.wraps(fn)
        def wrapped(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            counts["cli.bytes_written"] += path.stat().st_size
            return out
        return wrapped

    func(cli, "parse_scenarios_text")
    func(cli, "run_scenarios", run_root)
    func(cli, "_execute")
    func(cli, "_write_csv", write_csv)

    # talenti_check
    func(talenti_check, "run_comparison")
    func(talenti_check, "make_shifted_cap")

    def model_for(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            before = counts["model_space.builds"]
            out = fn(*args, **kwargs)
            if counts["model_space.builds"] > before:
                counts["talenti_check.model_for_misses"] += 1
            return out
        return wrapped

    func(talenti_check, "model_for", model_for)

    # eigen: a model_eigenpair call that runs a shooting solve is a miss
    func(eigen, "first_eigenpair", counting("eigen.first_eigenpair_calls"))

    def model_eigenpair(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts["eigen.model_eigenpair_calls"] += 1
            before = counts["eigen.first_eigenpair_calls"]
            out = fn(*args, **kwargs)
            if counts["eigen.first_eigenpair_calls"] > before:
                counts["eigen.model_eigenpair_misses"] += 1
            return out
        return wrapped

    func(eigen, "model_eigenpair", model_eigenpair)
    func(eigen, "alpha_from_lambda")
    func(eigen, "lp_norm")

    # solve_ivp is scipy's: counted, not timed, so its stepping overhead
    # stays in eigen's self time
    ivp = eigen.solve_ivp

    @functools.wraps(ivp)
    def solve_ivp(*args, **kwargs):
        out = ivp(*args, **kwargs)
        counts["eigen.ivp_solves"] += 1
        counts["eigen.rhs_evals"] += out.nfev
        return out

    eigen.solve_ivp = solve_ivp

    # sobolev_embed
    for attr in ("c1_constant", "c2_constant", "check_embedding"):
        func(sobolev_embed, attr)

    # radial_poisson
    for attr in ("solve_explicit", "solve_mass_form", "weak_residual",
                 "gradient_norm", "gradient_norm_mass"):
        func(radial_poisson, attr)
    method(radial_poisson.WeightedInterval, "density", "radial_poisson",
           counting("radial_poisson.density_calls",
                    "radial_poisson.density_points"))

    # rearrangement
    func(rearrangement, "sample_on_cells")
    func(rearrangement, "decreasing_rearrangement")

    # model_space
    ms = model_space.ModelSpace
    method(ms, "__init__", "model_space", counting("model_space.builds"))
    method(ms, "density", "model_space",
           counting("model_space.density_calls", "model_space.density_points"))
    method(ms, "cumulative", "model_space")
    method(ms, "inverse_cumulative", "model_space",
           counting(points="model_space.inverse_points"))
    method(ms, "isoperimetric_profile", "model_space")

    # numerics: the table kernels and the adaptive quadrature
    mt = numerics.MonotoneTable
    method(mt, "__init__", "numerics", counting("numerics.table_builds"))
    method(mt, "cumulative", "numerics",
           counting(points="numerics.table_cumulative_points"))

    def inverse(fn):
        # counts the density points the Newton inverse evaluates by
        # swapping the instance's density for a counting one per call
        @functools.wraps(fn)
        def wrapped(self, v):
            counts["numerics.table_inverse_points"] += _points(v)
            dens = self.density

            def counted(t):
                counts["inverse_density_points"] += _points(t)
                return dens(t)

            self.density = counted
            try:
                return fn(self, v)
            finally:
                self.density = dens
        return wrapped

    method(mt, "inverse", "numerics", inverse)
    func(numerics, "integrate", counting("numerics.integrate_calls"))
