"""Decreasing rearrangements and Schwarz symmetrization of cell data.

Functions enter as finite lists of cells (measure, value).  Atomic data
is rearranged exactly by sorting; grid-sampled data carries the usual
first-order grid error and is treated as such by the callers.  The
decreasing rearrangement lives on [0, total mass] with Lebesgue
measure; composing it with the model cumulative gives the radially
symmetric representative on the model segment, which shares all
distribution-derived quantities (level-set masses, every L^p norm) with
the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import InvalidParameter, MeasureOutOfRange
from .model_space import ModelSpace

_MEASURE_SLACK = 1e-12


@dataclass(frozen=True)
class SampledFunction:
    """Finitely many cells of a measurable function: (measure, value) pairs."""

    measures: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.measures, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if m.shape != v.shape or m.ndim != 1 or m.size == 0:
            raise InvalidParameter("cells need matching 1-D measure/value arrays")
        if not np.all(np.isfinite(m) & (m >= 0.0)):
            raise MeasureOutOfRange("cell measures must be finite and nonnegative")
        if not np.all(np.isfinite(v)):
            raise InvalidParameter("cell values must be finite")
        if float(m.sum()) > 1.0 + _MEASURE_SLACK:
            raise MeasureOutOfRange("total cell measure exceeds the ambient mass 1")
        object.__setattr__(self, "measures", m)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class StepFunction:
    """Left-continuous piecewise constant function, k jumps and k+1 levels.

    Level i applies on (breakpoint i-1, breakpoint i], so the value at a
    jump is the level on its left; the final level applies beyond the
    last breakpoint.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        if lv.size != bp.size + 1:
            raise InvalidParameter("need len(levels) == len(breakpoints) + 1")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(lv))):
            raise InvalidParameter("breakpoints and levels must be finite")
        if bp.size and not np.all(np.diff(bp) > 0.0):
            raise InvalidParameter("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.breakpoints, arr, side="left")
        out = self.levels[idx]
        return out if np.ndim(x) else float(out[0])

    def integral(self, s):
        """Exact integral of the step over [0, s] (Lebesgue measure)."""
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(arr < 0.0):
            raise InvalidParameter("integral endpoint must be nonnegative")
        knots = np.concatenate([[0.0], self.breakpoints])
        # cumulative integral at the knots
        cum = np.concatenate([[0.0], np.cumsum(self.levels[:-1] * np.diff(knots))])
        idx = np.searchsorted(knots, arr, side="right") - 1
        out = cum[idx] + self.levels[idx] * (arr - knots[idx])
        return out if np.ndim(s) else float(out[0])

    @property
    def support_end(self) -> float:
        """Last jump abscissa (the function is constant beyond it)."""
        return float(self.breakpoints[-1]) if self.breakpoints.size else 0.0


@dataclass(frozen=True)
class SymmetrizedFunction:
    """Radially decreasing representative on a model segment.

    Evaluates as profile(H(x)) where profile is the decreasing
    rearrangement and H the model cumulative, so it vanishes beyond the
    radius enclosing the mass of the original domain.
    """

    model: ModelSpace
    profile: StepFunction

    def __call__(self, x):
        return self.profile(self.model.cumulative(x))

    @property
    def jump_radii(self) -> np.ndarray:
        return self.model.inverse_cumulative(self.profile.breakpoints)


def decreasing_rearrangement(u: SampledFunction) -> StepFunction:
    """u^sharp on [0, total mass]: same distribution, nonincreasing.

    Left-continuous; u^sharp(0) is the essential supremum of |u| and the
    value is zero beyond the mass actually carried by nonzero values.
    Equal values merge into one level carrying their summed measure; a
    level lost in the running sum of the larger ones has no width.
    """
    av = np.abs(u.values)
    keep = (u.measures > 0.0) & (av > 0.0)
    vals, inv = np.unique(av[keep], return_inverse=True)
    mass = np.zeros(vals.size)
    np.add.at(mass, inv, u.measures[keep])
    cuts = np.cumsum(mass[::-1])
    wide = np.diff(cuts, prepend=0.0) > 0.0
    return StepFunction(cuts[wide], np.append(vals[::-1][wide], 0.0))


def schwarz_symmetrize(u: SampledFunction, model: ModelSpace) -> SymmetrizedFunction:
    """Symmetric decreasing representative of u on the model segment."""
    return SymmetrizedFunction(model=model,
                               profile=decreasing_rearrangement(u))


def _step_lp(step: StepFunction, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(step.levels)))
    knots = np.concatenate([[0.0], step.breakpoints])
    widths = np.diff(knots)
    body = float(np.sum(np.abs(step.levels[:-1]) ** p * widths))
    if step.levels[-1] != 0.0:
        raise InvalidParameter("step function has infinite L^p mass beyond support")
    return body ** (1.0 / p)


def _symmetrized_lp(f: SymmetrizedFunction, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(f.profile.levels)))
    # independent route: integrate value^p against the model density
    # between consecutive jump radii
    radii = np.concatenate([[0.0], f.jump_radii])
    total = 0.0
    for left, right, level in zip(radii[:-1], radii[1:], f.profile.levels[:-1]):
        if right <= left or level == 0.0:
            continue
        total += abs(level) ** p * numerics.integrate(f.model.density, left, right)
    return total ** (1.0 / p)


def lp_norm(obj, p: float) -> float:
    """L^p norm (p >= 1 or inf) of cells, steps or symmetrized profiles.

    Cell data integrates against its measures, step data against
    Lebesgue measure on [0, support], symmetrized data against the model
    density via quadrature between jump radii.
    """
    if not (p == math.inf or p >= 1.0):
        raise InvalidParameter(f"L^p norm needs p >= 1 or inf, got {p}")
    if isinstance(obj, SampledFunction):
        if math.isinf(p):
            live = obj.measures > 0.0
            return float(np.max(np.abs(obj.values[live]))) if live.any() else 0.0
        return float(np.sum(obj.measures * np.abs(obj.values) ** p)) ** (1.0 / p)
    if isinstance(obj, StepFunction):
        return _step_lp(obj, p)
    if isinstance(obj, SymmetrizedFunction):
        return _symmetrized_lp(obj, p)
    raise InvalidParameter(f"no L^p norm for objects of type {type(obj)!r}")


def sample_on_cells(fn, cumulative, r1: float, n_cells: int) -> SampledFunction:
    """Grid-sampled cell data for a function on [0, r1].

    Cell measures come from cumulative differences of the ambient
    measure; values are midpoint samples, so the result carries
    first-order grid error.
    """
    if n_cells < 1:
        raise InvalidParameter("need at least one cell")
    edges = numerics.cosine_grid(0.0, r1, n_cells)
    masses = np.diff(np.asarray(cumulative(edges), dtype=float))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return SampledFunction(np.maximum(masses, 0.0),
                           np.asarray(fn(mids), dtype=float))
