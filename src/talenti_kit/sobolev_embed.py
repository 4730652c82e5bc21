"""Embedding constants for radial p-Laplace problems.

For a source in L^s on a domain of mass v inside a space with curvature
bound K and dimension bound N, the solution obeys

    sup |u|   <=  c1 * ||f||_s^(1/(p-1))        (s above N/p),
    ||u||_t   <=  c2 * ||f||_s^(1/(p-1))        (s at or below N/p),

where both constants are integrals of g(xi) = xi^a / I(xi)^b against the
model isoperimetric profile I:

    c1 = integral_0^v g,                    a = (1 - 1/s) / (p - 1),
    c2 = (integral_0^v G(x)^t dx)^(1/t),    b = p / (p - 1),
    G(x) = integral_x^v g,                  with 1/s = 0 at s = infinity.

Near xi = 0 the profile behaves like N gamma2^(1/N) xi^((N-1)/N), so g is
a power xi^(e1 - 1) with e1 = (p/N - 1/s)/(p - 1): the head integral
converges exactly when s > N/p, and the outer integral of G^t converges
exactly when t*(1/s - p/N)/(p - 1) < 1.  Falling outside these windows is
part of the statement being checked, not a numerical failure, so a
divergent constant is returned as math.inf rather than raised.

Numerically, the exact profile is integrated on [xi0, v] in log-mass
coordinates (xi0 = 1e-6 * v) and the head [0, xi0] is summed in closed
form from the two-term small-mass expansion

    I(xi) = N gamma2^(1/N) xi^((N-1)/N) (1 - eta (xi/gamma2)^(2/N) + ...),
    eta = K / (2 (N + 2)),

whose truncation error is a few parts in 1e10 of the head term.  The
outer c2 integral leans on the quadrature kernel's geometric endpoint
tail, which sums the x -> 0 power (or log) singularity of G^t in closed
form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import InvalidParameter, NonConvergence
from .model_space import ModelSpace, check_curvature_dimension, model_for
from .radial_poisson import (RadialProblem, RadialSolution, check_exponent,
                             node_integral)

# relative guard around the finiteness boundary: a regime gap below this
# fraction of p/N counts as sitting on the boundary, so s = N/p lands on
# the divergent side no matter how the quotient was rounded
_BOUNDARY_GUARD = 1e-12

# the outer integral is refused (rather than mis-summed) this close to
# its divergence boundary; the constant is finite there but astronomical
_OUTER_CUTOFF = 0.99


def is_divergent(x) -> bool:
    """A constant outside its finite regime, which is math.inf."""
    return x == math.inf


def _validate(K: float, N: float, v: float, p: float, s: float) -> float:
    """Common parameter screen; returns 1/s with the s = inf convention."""
    check_curvature_dimension(K, N)
    if not (0.0 < v < 1.0):
        raise InvalidParameter(f"domain mass v={v} must lie in (0, 1)")
    if not (p > 1.0 and math.isfinite(p)):
        raise InvalidParameter(f"exponent p={p} must exceed 1")
    if s == math.inf:
        return 0.0
    if not (s > 0.0 and math.isfinite(s)):
        raise InvalidParameter(f"integrability exponent s={s} must be positive")
    return 1.0 / s


def _power_piece(lo: np.ndarray, hi: float, e: float) -> np.ndarray:
    """integral of xi^(e-1) over [lo, hi], elementwise in lo.

    Written through expm1 so nearly-flat exponents (|e| down to roundoff)
    lose nothing to cancellation; lo = 0 returns the closed-form limit.
    """
    lo = np.asarray(lo, dtype=float)
    if e == 0.0:
        with np.errstate(divide="ignore"):
            return np.log(hi / lo)
    out = np.empty_like(lo)
    zero = lo <= 0.0
    out[zero] = hi**e / e if e > 0.0 else math.inf
    l = lo[~zero]
    out[~zero] = l**e * np.expm1(e * np.log(hi / l)) / e
    return out


class _Head:
    """Two-term small-mass expansion kappa xi^(e1-1) + kappa2 xi^(e2-1)
    of the integrand xi^a / I(xi)^b, integrated in closed form below
    xi0 = 1e-6 * v (see the module docstring)."""

    def __init__(self, model: ModelSpace, v: float, b: float,
                 e1: float) -> None:
        N = model.N
        # cumulative H(t) ~ gamma2 t^N at the pole
        gamma2 = math.sqrt(model.K / (N - 1.0)) ** (N - 1.0) / model.c / N
        self.xi0 = 1e-6 * v
        self.e1 = e1
        self.e2 = e1 + 2.0 / N
        self.kappa = (N * gamma2 ** (1.0 / N)) ** (-b)
        eta = model.K / (2.0 * (N + 2.0))
        self.kappa2 = self.kappa * b * eta * gamma2 ** (-2.0 / N)

    def total(self) -> float:
        """Integral over [0, xi0]; e1 > 0 only."""
        return (self.kappa * self.xi0**self.e1 / self.e1
                + self.kappa2 * self.xi0**self.e2 / self.e2)

    def above(self, lo: np.ndarray) -> np.ndarray:
        """Integral over [lo, xi0], elementwise in lo."""
        return (self.kappa * _power_piece(lo, self.xi0, self.e1)
                + self.kappa2 * _power_piece(lo, self.xi0, self.e2))


def _log_mass_leg(model: ModelSpace, a: float, b: float):
    """y -> xi^a / I(xi)^b dxi/dy at xi = e^y, the integrand in
    log-mass coordinates."""

    def leg(y):
        xi = np.exp(np.asarray(y, dtype=float))
        prof = np.asarray(model.isoperimetric_profile(xi), dtype=float)
        return xi ** (a + 1.0) / prof**b

    return leg


class _ProfileTail:
    """Vectorized x -> integral_x^v xi^a / I(xi)^b dxi for one parameter set.

    The exact integrand is tabulated in log-mass coordinates by a
    MonotoneTable over [0, log v - log xi0]; below xi0 the closed-form
    expansion head takes over.
    """

    def __init__(self, model: ModelSpace, v: float, a: float, b: float,
                 e1: float) -> None:
        self.v = float(v)
        self.head = _Head(model, v, b, float(e1))
        self.xi0 = self.head.xi0
        self._y0 = y0 = math.log(self.xi0)
        leg = _log_mass_leg(model, a, b)
        self._table = numerics.MonotoneTable(lambda y: leg(y0 + y),
                                             math.log(self.v) - y0)

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.log(np.clip(arr, self.xi0, self.v)) - self._y0
        out = self._table.total - self._table.cumulative(y)
        low = arr < self.xi0
        if np.any(low):
            out[low] += self.head.above(arr[low])
        return out if np.ndim(x) else float(out[0])


def _regime_gap(N: float, p: float, inv_s: float) -> float:
    """p/N - 1/s; positive in the sup-norm regime, negative below it."""
    return p / N - inv_s


def c1_constant(K: float, N: float, v: float,
                p: float, s: float) -> float:
    """Sup-norm embedding constant; math.inf when s <= N/p.

    The finiteness test runs through the head exponent e1 = (p/N - 1/s)
    / (p - 1) of the closed-form piece, so the flip sits exactly at
    s = N/p up to a 1e-12 relative guard.
    """
    inv_s = _validate(K, N, v, p, s)
    gap = _regime_gap(N, p, inv_s)
    if gap <= _BOUNDARY_GUARD * (p / N):
        return math.inf
    model = model_for(K, N)
    a = (1.0 - inv_s) / (p - 1.0)
    b = p / (p - 1.0)
    head = _Head(model, v, b, gap / (p - 1.0))
    return head.total() + numerics.integrate(_log_mass_leg(model, a, b),
                                             math.log(head.xi0), math.log(v))


def c2_constant(K: float, N: float, v: float, p: float, s: float,
                t: float) -> float:
    """L^t embedding constant; math.inf when t < 1 or the regime
    condition t (1/s - p/N) / (p - 1) < 1 fails.

    Inside the finite window the outer integrand G(x)^t has an integrable
    power (or log) singularity at x = 0, which the quadrature kernel sums
    by geometric tail extrapolation.  Within 1% of the divergence
    boundary the constant is still finite but too large to sum reliably,
    and the computation refuses with NonConvergence instead of returning
    a noisy number.
    """
    inv_s = _validate(K, N, v, p, s)
    check_exponent("norm exponent t", t)
    if t < 1.0:
        return math.inf
    theta = -_regime_gap(N, p, inv_s) / (p - 1.0)
    if t * theta >= 1.0 - _BOUNDARY_GUARD:
        return math.inf
    if t * theta > _OUTER_CUTOFF:
        raise NonConvergence(
            f"outer exponent t*(1/s - p/N)/(p-1) = {t * theta:.6f} sits too "
            "close to the divergence boundary to integrate reliably")
    model = model_for(K, N)
    a = (1.0 - inv_s) / (p - 1.0)
    b = p / (p - 1.0)
    tail = _ProfileTail(model, v, a, b, -theta)
    outer = numerics.integrate(
        lambda x: np.maximum(tail(x), 0.0) ** t, 0.0, v)
    return outer ** (1.0 / t)


class EmbeddingCheck(NamedTuple):
    lhs: float
    rhs: float
    slack: float
    constant: float  # c1 without t, c2 with t


def _source_norm(prob: RadialProblem, s: float) -> float:
    """||f||_s over [0, r1]: a dense maximum for s = inf, else one
    adaptive quadrature per piece between the source's knots.  It stays
    off the slope table: where the source vanishes like a power at an
    interior knot (cospos at pi/2), |f|^s is singular there, which the
    quadrature's endpoint tails sum and the table's ungraded interior
    cells miss by up to 4e-10 relative for s near 1."""
    if s == math.inf:
        ts = np.linspace(0.0, prob.r1, 4097)
        for k in prob.inner_knots:
            step = 1e-9 * prob.r1
            ts = np.append(ts, [k - step, k, k + step])
        return float(np.max(np.abs(np.asarray(prob.f(np.sort(ts)), dtype=float))))
    dens = prob.space.density
    cuts = [0.0, *sorted(prob.inner_knots), prob.r1]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += numerics.integrate(
            lambda rho: np.abs(np.asarray(prob.f(rho), dtype=float)) ** s
            * np.asarray(dens(rho), dtype=float), lo, hi)
    return total ** (1.0 / s)


def check_embedding(prob: RadialProblem, sol: RadialSolution, s: float,
                    t: float | None = None) -> EmbeddingCheck:
    """Verify the embedding inequality on a solved radial problem.

    lhs is sup |u|, or when t is given the L^t norm, a node_integral
    over sol's slope table (so sol comes from solve_explicit); rhs is
    the matching constant times ||f||_s^(1/(p-1)).  slack = rhs - lhs
    should be nonnegative up to the constant's and ||f||_s's quadrature
    tolerance, rel 1e-10.  A divergent constant makes the bound vacuous:
    rhs is +inf unless the source vanishes identically.
    """
    space = prob.space
    if space.cd is None:
        raise InvalidParameter("problem space carries no curvature-dimension tag")
    if t is not None:
        check_exponent("norm exponent t", t)
    K, N = space.cd
    v = float(space.cumulative(prob.r1))
    if not (0.0 < v < 1.0):
        raise InvalidParameter(
            f"domain mass v={v} must be a proper fraction of the space")
    if t is None:
        lhs = max(float(np.max(np.abs(sol.w))), abs(float(sol.w_at(0.0))))
        c = c1_constant(K, N, v, prob.p, s)
    else:
        lhs = node_integral(sol, lambda x, w, d: w ** t) ** (1.0 / t)
        c = c2_constant(K, N, v, prob.p, s, t)
    norm = _source_norm(prob, s)
    rhs = 0.0 if norm == 0.0 else c * norm ** (1.0 / (prob.p - 1.0))
    return EmbeddingCheck(lhs=lhs, rhs=rhs, slack=rhs - lhs, constant=c)
