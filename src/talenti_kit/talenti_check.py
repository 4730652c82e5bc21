"""End-to-end symmetrization comparison for radial p-Poisson problems.

Given a weighted interval carrying a curvature-dimension tag, solve
-div(|u'|^{p-2} u') = f there, push the solution to the matching model
space by decreasing rearrangement, solve the model problem with the
rearranged datum, and certify the orderings that symmetrization
predicts: u* <= w pointwise, gradient norms dominated for every
exponent r in [1, p], and the Levy-Gromov ratio h(rho_t)/I(mu_t) of
every superlevel set [0, rho_t) of mass mu_t at or above 1, with h the
instance density and I the model profile.

The paper's per-level chain needs no check of its own.  On a weighted
interval, -mu'(t) = h(rho_t)/|u'(rho_t)| and |u'| = (M/h)^{1/(p-1)}
with M the source mass of [0, rho_t), so each chain entry
-mu' F(mu)^{1/(p-1)} / I(mu)^{p/(p-1)} is exactly
(h/I)^{p/(p-1)} (F(mu)/M)^{1/(p-1)}: the Levy-Gromov ratio times the
Hardy-Littlewood ratio of F, the running integral of the rearranged
source, to M, and F >= M.  tests/test_talenti_check.py checks this
identity in closed form.

Shifted caps are the workhorse nontrivial instances: truncating the
model density at a positive offset keeps the curvature criterion exact
while breaking the equality case, so every comparison has something to
measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .errors import (
    CheckFailure,
    DegenerateLevel,
    InvalidMass,
    InvalidParameter,
    InvalidShift,
)
from .model_space import (
    ModelSpace,
    WeightedInterval,
    check_curvature_dimension,
    model_for,
    sine_power,
)
from .radial_poisson import (
    RadialProblem,
    RadialSolution,
    gradient_norm,
    solve_explicit,
)
from .rearrangement import decreasing_rearrangement, sample_on_cells


def make_shifted_cap(K: float, N: float, shift: float,
                     v: float | None = None) -> WeightedInterval:
    """Model density truncated at a positive offset, as a unit-mass space.

    The density sine_power(K, N, shift) on [0, L - shift] inherits the
    curvature criterion from the model exactly; shift = 0 gives the
    model's density bit for bit on [0, L].  Passing the target mass v
    checks up front that the domain radius stays inside the support.
    K and N must satisfy the model's own range.
    """
    check_curvature_dimension(K, N)
    raw, L = sine_power(K, N, shift)
    if not (0.0 <= shift < 0.5 * L and math.isfinite(shift)):
        raise InvalidShift(f"shift {shift} outside [0, {0.5 * L:.6g})")
    length = L - shift
    cap = WeightedInterval(raw, length, cd=(float(K), float(N)))
    if v is not None:
        if not (0.0 < v < 1.0):
            raise InvalidMass(f"domain mass v={v} must lie in (0, 1)")
        r1 = float(cap.inverse_cumulative(v))
        if shift + r1 >= L:
            raise InvalidShift(
                f"shift {shift} leaves no room for a domain of mass {v}")
    return cap


@dataclass(frozen=True)
class ProblemInstance:
    """A comparison instance: tagged space, exponent, source, domain mass.

    The domain is the interval [0, r1) holding mass v; f_knots lists
    known discontinuities of the source so both solves can pin them to
    quadrature cell edges.  A model_for segment as space is the equality
    case, whose sharpness run_comparison measures for a nonincreasing f.
    """

    space: WeightedInterval
    p: float
    f: Callable
    v: float
    f_knots: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.space.cd is None:
            raise InvalidParameter(
                "instance space carries no curvature-dimension tag")
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise InvalidParameter(f"exponent p={self.p} must exceed 1")
        if not (0.0 < self.v < 1.0):
            raise InvalidMass(f"domain mass v={self.v} must lie in (0, 1)")

    @property
    def model(self) -> ModelSpace:
        K, N = self.space.cd
        return model_for(K, N)

    @property
    def r1(self) -> float:
        return float(self.space.inverse_cumulative(self.v))

    @property
    def model_radius(self) -> float:
        return float(self.model.inverse_cumulative(self.v))

    def problem(self) -> RadialProblem:
        return RadialProblem(self.space, self.p, self.f, self.r1,
                             f_knots=self.f_knots)


@dataclass
class ComparisonReport:
    """Outcome of one symmetrization comparison."""

    pointwise_violation: float
    grid_bound: float
    gradient_gaps: dict[float, tuple[float, float]]
    levy_gromov_min_ratio: float
    sharpness_gap: float
    sup_u: float
    origin_gap: float


def _rearranged_source(inst: ProblemInstance):
    """Decreasing rearrangement of the source in mass coordinates.

    Returns (pointwise callable on [0, v], step or None, knot masses).
    Sources that are already nonincreasing compose exactly with the
    inverse volume map and return no step; anything else goes through
    cell sampling into a step function, which is first-order accurate.
    The knot masses are the masses of the source's own knots, or the
    step's jumps, so the model side can pin every kink of its slope.
    """
    r1 = inst.r1
    probes = np.linspace(0.0, r1, 2049)
    fv = np.asarray(inst.f(probes), dtype=float)
    scale = float(np.max(np.abs(fv)))
    slack = 1e-12 * (scale if scale > 0.0 else 1.0)
    if np.all(np.diff(fv) <= slack):
        def fsharp_at(s):
            arr = np.atleast_1d(np.asarray(s, dtype=float))
            rho = inst.space.inverse_cumulative(np.clip(arr, 0.0, inst.v))
            out = np.asarray(inst.f(rho), dtype=float)
            return out if np.ndim(s) else float(out[0])

        knot_masses = tuple(
            float(inst.space.cumulative(k)) for k in inst.f_knots
            if 0.0 < k < r1)
        return fsharp_at, None, knot_masses
    sampled = sample_on_cells(inst.f, inst.space.cumulative, r1,
                              n_cells=4096)
    step = decreasing_rearrangement(sampled)

    def fsharp_at(s):
        return step(np.clip(np.asarray(s, dtype=float), 0.0, inst.v))

    return fsharp_at, step, tuple(step.breakpoints)


def _source_cumulative(inst: ProblemInstance, u: RadialSolution, step):
    """Running integral of the rearranged source on [0, v], exact.

    For monotone sources the change of variables s = W(rho) turns
    int_0^s fsharp into the instance mass M(W^{-1}(s)), already owned
    by the solution; step sources integrate in closed form.
    """
    if step is None:
        return lambda s: u.mass_at(
            inst.space.inverse_cumulative(np.clip(s, 0.0, inst.v)))
    return lambda s: step.integral(np.clip(s, 0.0, inst.v))


def _radius_of_level(u: RadialSolution, levels: np.ndarray) -> np.ndarray:
    """Radii where the nonincreasing solution takes the given levels:
    w = total - cumulative of the slope table, so one table inverse."""
    if u.slope is None:
        raise InvalidParameter(
            "level radii need the slope table that solve_explicit builds")
    return u.slope.inverse(u.slope.total - levels)


def run_comparison(inst: ProblemInstance,
                   r_list: list[float] | None = None,
                   n_check: int = 2048) -> ComparisonReport:
    """Solve both problems and fill a ComparisonReport.

    The pointwise comparison u* <= w runs on a shared cosine grid of
    n_check cells, where both sides are evaluated to quadrature
    accuracy; values between nodes are not certified.  grid_bound is a
    first-order Lipschitz estimate of how much either side can move
    between neighboring nodes, reported beside the violation and not
    subtracted from it.
    """
    p = inst.p
    if r_list is None:
        r_list = [1.0, 0.5 * (1.0 + p), p]
    for r in r_list:
        if not (1.0 <= r <= p):
            raise InvalidParameter(f"gradient exponent r={r} outside [1, p]")
    resid = inst.space.cd_violation()
    if resid > 1e-6:
        raise CheckFailure(
            f"instance density violates the curvature criterion by {resid:.3e}")

    u = solve_explicit(inst.problem())
    fsharp_at, step, knot_masses = _rearranged_source(inst)
    F_at = _source_cumulative(inst, u, step)

    model = inst.model
    r_v = inst.model_radius
    fstar = lambda x: fsharp_at(model.cumulative(x))
    masses = np.asarray(knot_masses, dtype=float)
    masses = masses[(masses > 0.0) & (masses < inst.v)]
    star_knots = tuple(model.inverse_cumulative(masses).tolist())
    prob_w = RadialProblem(model, p, fstar, r_v, f_knots=star_knots)
    # the model mass of f* is F(H(rho)) exactly, so the model solve can
    # skip re-integrating the composed source
    mass_w = lambda rho: F_at(model.cumulative(rho))
    w = solve_explicit(prob_w, mass_at=mass_w)

    # u* on the model grid: pull each node back to the instance radius
    # enclosing the same mass; the grid starts at exactly 0.0
    grid = numerics.cosine_grid(0.0, r_v, n_check)
    s_grid = np.asarray(model.cumulative(grid), dtype=float)
    rho = np.asarray(inst.space.inverse_cumulative(np.minimum(s_grid, inst.v)),
                     dtype=float)
    du = np.asarray(u.w_at(rho), dtype=float)
    du[s_grid >= inst.v] = 0.0
    dw = np.asarray(w.w_at(grid), dtype=float)
    diff = du - dw
    pointwise_violation = float(max(np.max(diff), 0.0))

    # first-order sampling bound: max spacing times the larger slope
    spacing = float(np.max(np.diff(grid)))
    with np.errstate(divide="ignore", invalid="ignore"):
        star_slope = np.abs(np.asarray(u.wprime_at(rho), dtype=float)) * \
            np.asarray(model.density(grid), dtype=float) / \
            np.asarray(inst.space.density(rho), dtype=float)
    star_slope = star_slope[np.isfinite(star_slope)]
    lip = max(float(np.max(np.abs(w.wprime))),
              float(np.max(star_slope)) if star_slope.size else 0.0)
    grid_bound = spacing * lip

    gradient_gaps = {
        float(r): (float(gradient_norm(u, r)), float(gradient_norm(w, r)))
        for r in r_list
    }

    sup_u = float(u.w_at(0.0))
    levels = np.linspace(0.05, 0.95, 16) * sup_u
    lg = levy_gromov_radial(inst, u, levels)

    sharpness_gap = float("nan")
    if inst.space is model and step is None:
        sharpness_gap = float(np.max(np.abs(diff)))

    return ComparisonReport(
        pointwise_violation=pointwise_violation,
        grid_bound=grid_bound,
        gradient_gaps=gradient_gaps,
        levy_gromov_min_ratio=lg,
        sharpness_gap=sharpness_gap,
        sup_u=sup_u,
        origin_gap=float(w.w_at(0.0)) - float(du[0]),
    )


def levy_gromov_radial(inst: ProblemInstance, u: RadialSolution,
                       levels) -> float:
    """Min over levels of perimeter(superlevel set) / model profile.

    Superlevel sets of a nonincreasing radial function are intervals
    [0, rho_t), so their perimeter is the instance density at rho_t;
    isoperimetry says the ratio to the model profile at the same mass
    never drops below 1.  Levels at or above sup u are skipped.  The
    radii rho_t come from one inverse of u's slope table, so u must come
    from solve_explicit; a solution without one raises InvalidParameter.
    """
    lv = np.atleast_1d(np.asarray(levels, dtype=float))
    if np.any(lv < 0.0):
        raise InvalidParameter("levels must be nonnegative")
    sup_u = float(u.w_at(0.0))
    keep = lv < sup_u
    if not np.any(keep):
        raise DegenerateLevel("every level is at or above sup u")
    rho = _radius_of_level(u, lv[keep])
    per = np.asarray(inst.space.density(rho), dtype=float)
    mass = np.asarray(inst.space.cumulative(rho), dtype=float)
    ref = np.asarray(inst.model.isoperimetric_profile(mass), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = per / ref
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size == 0:
        raise DegenerateLevel("no level produced a finite perimeter ratio")
    return float(np.min(ratios))
