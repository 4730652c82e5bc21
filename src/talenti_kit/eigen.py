"""First Dirichlet eigenpairs of the weighted p-Laplacian on an interval.

On a weighted interval with density w the first eigenfunction is the
positive, nonincreasing solution of

    -(w * Phi_p(z'))' = lam * w * Phi_p(z),   Phi_p(x) = |x|^{p-2} x,

with z(0) = 1, z'(0) = 0 and z(r_v) = 0 at the radius enclosing the
prescribed mass fraction v.  first_eigenpair runs the inverse power
method (Biezuner, Ercole and Martins, J. Funct. Anal. 257, 2009): each
step is the explicit radial solve u_{k+1}(rho) = int_rho^{r_v}
(M_k / w)^{1/(p-1)} with M_k(rho) = int_0^rho u_k^{p-1} dm, and by
Picone's identity (Allegretto and Huang, Nonlinear Anal. 32, 1998) the
min and max of (u_k / u_{k+1})^{p-1} enclose lam.  The pair keeps |z'|
and the density at the Kronrod nodes of its grid as sol.slope and
sol.node_density, so its norms and Rayleigh quotient are node sums.

alpha_from_lambda inverts the model eigenvalue curve v -> lambda(v) by
one shot of the first-order system for z and the flux m = w * Phi_p(z'),

    z' = sign(m) |m / w|^{1/(p-1)},    m' = -lam * w * Phi_p(z),

from the pole, (z, m) = (1, -0) at t = 0; the RHS returns (0, 0) where
w = 0.  Its first zero falls strictly with lam (Elbert 1979), so the
model ball whose first eigenvalue is lam ends there.  The RHS reads the
density one scalar at a time; model and cap densities answer a float
argument through math.sin without array setup.

The remaining routines compare an instance eigenpair against the model
one: eigenvalue domination, the single-crossing ordering of the
symmetrized eigenfunction, reverse Hoelder norm ratios and the norm
deficit used as a closeness diagnostic.  Model eigenpairs are solved on
the shared model_for segment and not memoized: a caller that needs the
pair at v again holds on to it, so scenarios share nothing but the
read-only model.  faber_krahn_check solves the model segment once when
it is also the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import (
    CheckFailure,
    InvalidMass,
    InvalidParameter,
    NoBracket,
    NoCrossing,
    NonConvergence,
)
from .model_space import WeightedInterval, model_for
from .radial_poisson import (RadialProblem, RadialSolution, check_exponent,
                             node_integral, solve_explicit)

_ATOL = (1e-14, 1e-18)
# inverse iteration steps before NonConvergence
_ITERATIONS = 200


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first solve."""
    from scipy.integrate import solve_ivp as ivp
    return ivp(*args, **kwargs)


@dataclass
class EigenPair:
    """Eigenvalue plus the eigenfunction and the space it lives on.

    The eigenfunction is packaged as a RadialSolution so the
    weak-residual and gradient-norm checks from the Poisson module apply
    verbatim; its mass_at returns the cumulative datum mass
    int_0^rho lam*z^{p-1} dm, the mass the slope is built from.
    """

    lam: float
    sol: RadialSolution
    p: float
    space: WeightedInterval
    v: float

    @property
    def r_alpha(self) -> float:
        return self.sol.r1

    def z_at(self, t):
        return self.sol.w_at(t)

    def zprime_at(self, t):
        return self.sol.wprime_at(t)

    def rayleigh(self) -> float:
        """Rayleigh quotient of the stored profile, for consistency checks."""
        p = self.p
        return (node_integral(self.sol, lambda x, z, d: d ** p)
                / node_integral(self.sol, lambda x, z, d: z ** p))


class FaberKrahnResult(NamedTuple):
    instance: EigenPair
    model: EigenPair
    margin: float


@dataclass(frozen=True)
class HolderReport:
    """Norm-ratio comparison between an instance eigenfunction and the model.

    ratios map each exponent t to ||.||_t / ||.||_r; delta is the norm
    deficit over the exponents of t_grid lying above p-1, evaluated only
    when r = p-1 (the normalization the deficit is defined for), else nan.
    scale is ||u||_r / ||z||_r, the factor that matches the L^r norms.
    """

    t_grid: tuple[float, ...]
    ratios_instance: dict[float, float]
    ratios_model: dict[float, float]
    delta: float
    scale: float


def _rhs_factory(space: WeightedInterval, p: float, lam: float):
    # the density function, not the bound method: DOP853 keeps the RHS in
    # a reference cycle, which would hold the space and its table until a
    # full garbage collection
    dens = space._density
    e = 1.0 / (p - 1.0)
    pm1 = p - 1.0

    def rhs(t, y):
        z, m = y
        w = float(dens(t))
        if w <= 0.0:
            return (0.0, 0.0)
        zp = math.copysign(abs(m / w) ** e, m)
        mp = -lam * w * math.copysign(abs(z) ** pm1, z)
        return (zp, mp)

    return rhs


def _first_zero(space: WeightedInterval, p: float, lam: float,
                horizon: float) -> float:
    """First zero of z in (0, horizon], or inf: one DOP853 solve of the
    (z, m) system from the pole, where (z, m) = (1, -0)."""
    ev = lambda t, y: y[0]
    ev.terminal = True
    ev.direction = -1
    out = solve_ivp(_rhs_factory(space, p, lam), (0.0, horizon), (1.0, -0.0),
                    method="DOP853", rtol=1e-11, atol=_ATOL, events=ev)
    return float(out.t_events[0][0]) if out.t_events[0].size else math.inf


def _slope(mass: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """|z'| = (M / w)^{1/(p-1)}, and 0 where w <= 1e-280 or M <= 0: a
    density vanishing like t^{N-1} underflows in the graded first cells,
    where M / w would read 0/0."""
    out = np.zeros(np.shape(mass))
    ok = (w > 1e-280) & (mass > 0.0)
    out[ok] = (mass[ok] / w[ok]) ** (1.0 / (p - 1.0))
    return out


def _inverse_iteration(edges: np.ndarray, w: np.ndarray,
                       p: float) -> tuple[float, np.ndarray]:
    """(lam, u) on the Kronrod nodes of the cells between edges, where
    the density is w, from u = 1; each u_{k+1} is scaled to u(0) = 1.

    The bracket [lo, hi] of (u_k / u_{k+1})^{p-1} is taken where u_{k+1}
    exceeds 1e-3 of u_{k+1}(0).  The iteration stops once its width is
    within 1e-14 * hi, or within 1e-10 * hi and no narrower than the
    step before (the rounding floor), and lam is its midpoint.
    """
    pm1 = p - 1.0
    u, last = np.ones_like(w), math.inf
    for _ in range(_ITERATIONS):
        mass, _ = numerics.node_integrals(u ** pm1 * w, edges)
        nxt, top = numerics.node_integrals(_slope(mass, w, p), edges,
                                           from_right=True)
        keep = nxt > 1e-3 * top
        ratio = (u[keep] / nxt[keep]) ** pm1
        lo, hi = float(np.min(ratio)), float(np.max(ratio))
        u = nxt / top
        width = hi - lo
        if width <= 1e-14 * hi or last <= width <= 1e-10 * hi:
            return 0.5 * (lo + hi), u
        last = width
    raise NonConvergence(
        f"inverse iteration unsettled after {_ITERATIONS} steps "
        f"(bracket [{lo:.17g}, {hi:.17g}])")


def first_eigenpair(space: WeightedInterval, v: float, p: float) -> EigenPair:
    """First Dirichlet eigenpair at mass fraction v, by inverse iteration.

    v is the mass of the domain, so the answer is invariant under
    rescaling the density.  The iteration runs on the Kronrod nodes of
    numerics.table_grid(r_v).  The pair reads two tables built from the
    final node values: the datum mass lam * int_0^rho z^{p-1} dm, and the
    slope (mass / w)^{1/(p-1)}, whose integral from t to r_v is z(t) and
    which the solution keeps as sol.slope, with the iteration's density
    values w at the same nodes as sol.node_density.
    Queries clip t to [0, r_v], and z = 0 from r_v on.
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise InvalidParameter(f"exponent p={p} must exceed 1")
    if not (0.0 < v < 1.0 and math.isfinite(v)):
        raise InvalidMass(f"mass fraction v={v} must lie in (0, 1)")
    r_v = float(space.inverse_cumulative(v))
    probes = np.linspace(0.0, r_v, 258)[1:]
    if np.any(np.asarray(space.density(probes), dtype=float) <= 0.0):
        raise InvalidParameter("density must stay positive on (0, r_v]")

    edges = numerics.table_grid(r_v)
    w = numerics.node_values(space.density, edges[:-1], np.diff(edges))
    lam, u = _inverse_iteration(edges, w, p)
    datum = lam * u ** (p - 1.0) * w
    mass_table = numerics.MonotoneTable(None, r_v, values=datum)
    slope_table = numerics.MonotoneTable(
        None, r_v, values=_slope(numerics.node_integrals(datum, edges)[0],
                                 w, p))
    dens = space.density

    def clipped(t):
        return np.clip(np.atleast_1d(np.asarray(t, dtype=float)), 0.0, r_v)

    def mass(c):
        # the table's Clenshaw sum at the pole is zero only to rounding
        return np.where(c > 0.0, mass_table.cumulative(c), 0.0)

    def z_at(t):
        c = clipped(t)
        z = slope_table.total - slope_table.cumulative(c)
        z[c >= r_v] = 0.0
        return z if np.ndim(t) else float(z[0])

    def zprime_at(t):
        c = clipped(t)
        val = -_slope(mass(c), np.asarray(dens(c), dtype=float), p)
        return val if np.ndim(t) else float(val[0])

    def mass_at(rho):
        m = mass(clipped(rho))
        return m if np.ndim(rho) else float(m[0])

    grid = numerics.cosine_grid(0.0, r_v, 2048)
    sol = RadialSolution(grid=grid, w=z_at(grid), wprime=zprime_at(grid),
                         r1=r_v, w_at=z_at, wprime_at=zprime_at,
                         mass_at=mass_at, slope=slope_table, node_density=w)
    return EigenPair(lam=lam, sol=sol, p=p, space=space, v=float(v))


def model_eigenpair(K: float, N: float, p: float, v: float) -> EigenPair:
    """First eigenpair of the model segment at mass fraction v."""
    return first_eigenpair(model_for(K, N), v, p)


def alpha_from_lambda(up: EigenPair,
                      lambda_target: float) -> tuple[float, EigenPair]:
    """Mass fraction alpha <= up.v whose model eigenvalue hits the
    target, and the model eigenpair at alpha.

    up is the model eigenpair at the upper mass fraction v_upper = up.v,
    which the caller already holds; its space, p and v give the model,
    the exponent and the upper bound.  The ball on which lambda_target
    is the first eigenvalue ends at the first zero r0 of the model
    solution shot at lambda_target, and alpha = H(r0): one integration
    on [0, r(v_upper)], with no search over alpha.  The returned pair is
    first_eigenpair on that ball, so its eigenvalue matches the target
    to the accuracy of the shot's zero, not by construction.  A target
    within 1e-9 * target of up.lam, or under it by less than the
    relative gate, returns v_upper and up itself; a target further
    below raises NoBracket, and a solution with no zero inside
    r(v_upper) raises NonConvergence.
    """
    if not (lambda_target > 0.0 and math.isfinite(lambda_target)):
        raise InvalidParameter("lambda_target must be positive and finite")

    model, p, v_upper = up.space, up.p, up.v
    gate = max(1e-6 * lambda_target, 1e-9)
    if lambda_target < up.lam - gate:
        raise NoBracket(
            f"target eigenvalue {lambda_target:.6g} lies below the value "
            f"{up.lam:.6g} at v_upper={v_upper}; no mass in (0, v_upper] "
            "attains it")
    if (lambda_target <= up.lam
            or abs(up.lam - lambda_target) <= 1e-9 * lambda_target):
        return v_upper, up

    r0 = _first_zero(model, p, lambda_target, up.r_alpha)
    if not math.isfinite(r0):
        raise NonConvergence(
            f"model solution at lambda={lambda_target:.6g} has no zero "
            f"inside the ball of mass v_upper={v_upper}")
    alpha = float(model.cumulative(r0))
    return alpha, first_eigenpair(model, alpha, p)


def faber_krahn_check(space: WeightedInterval, v: float,
                      p: float) -> FaberKrahnResult:
    """Instance eigenpair versus the model one at equal mass fraction."""
    if space.cd is None:
        raise InvalidParameter("instance carries no curvature-dimension tag")
    K, N = space.cd
    zm = model_eigenpair(K, N, p, v)
    # the model segment itself solves to the model pair
    zi = zm if space is zm.space else first_eigenpair(space, v, p)
    return FaberKrahnResult(instance=zi, model=zm, margin=zi.lam - zm.lam)


def eigenvalue_enclosure(pair: EigenPair) -> tuple[float, float]:
    """Bounds (lam_lo, lam_hi) on the pair's eigenvalue by Picone's
    identity: the min and max of (z / w)^{p-1} where z > 1e-3, with w
    the explicit solution for the datum z^{p-1} on the pair's ball."""
    e = pair.p - 1.0
    datum = lambda t: np.asarray(pair.z_at(t), dtype=float) ** e
    sol = solve_explicit(RadialProblem(pair.space, pair.p, datum,
                                       pair.r_alpha))
    z = np.asarray(pair.z_at(sol.grid), dtype=float)
    keep = z > 1e-3
    ratio = (z[keep] / sol.w[keep]) ** e
    return float(np.min(ratio)), float(np.max(ratio))


def lp_norm(pair: EigenPair, t: float) -> float:
    """(int z^t dm)^{1/t} over the pair's own weighted interval, a
    node_integral over the cells of its slope table."""
    check_exponent("norm exponent t", t)
    return node_integral(pair.sol, lambda x, z, d: z ** t) ** (1.0 / t)


def _check_pair(u: EigenPair, z: EigenPair, p: float) -> None:
    """Instance u and model z solve the p-Laplacian at the same p; both
    live on unit-mass spaces by construction, the setting every norm
    comparison below assumes."""
    if not (p > 1.0 and math.isfinite(p)):
        raise InvalidParameter(f"exponent p={p} must exceed 1")
    if abs(u.p - p) > 1e-12 or abs(z.p - p) > 1e-12:
        raise InvalidParameter(
            f"eigenpairs solve p={u.p} and p={z.p}, not p={p}")


def _norms(u: EigenPair, z: EigenPair, ts) -> tuple[dict, dict]:
    """lp_norm of u and of z, once per distinct exponent of ts."""
    ts = dict.fromkeys(ts)
    return {t: lp_norm(u, t) for t in ts}, {t: lp_norm(z, t) for t in ts}


def chiti_compare(u: EigenPair, z: EigenPair, r: float,
                  scale: float | None = None) -> tuple[float, float]:
    """Single-crossing comparison of the symmetrized instance eigenfunction.

    u is symmetrized onto the model segment underlying z, z is rescaled
    so both have the same L^r norm, and the difference is scanned for
    its sign change: the comparison predicts u* <= z before the crossing
    and z <= u* after.  Returns the crossing abscissa (refined by linear
    interpolation between grid points) and the worst violation of that
    two-sided ordering.  Differences within a 1e-6 band count as
    equality; if the whole difference stays inside the band the pair is
    degenerate-equal and (r_alpha, 0) is returned, while a genuinely
    one-sided difference raises NoCrossing.  scale, when given, is the
    matched factor ||u||_r / ||z||_r (HolderReport.scale holds it), and
    saves integrating both norms again.
    """
    check_exponent("norm exponent r", r)
    _check_pair(u, z, u.p)

    c = lp_norm(u, r) / lp_norm(z, r) if scale is None else scale
    r_alpha = z.sol.r1
    x = np.linspace(0.0, r_alpha, 4097)

    Hm = z.space.cumulative
    inv = u.space.inverse_cumulative
    s = np.minimum(np.asarray(Hm(x), dtype=float), u.v)
    ustar = np.asarray(u.sol.w_at(inv(s)), dtype=float)
    ztil = c * np.asarray(z.sol.w_at(x), dtype=float)
    d = ustar - ztil

    band = 1e-6 * max(1.0, float(np.max(ztil)))
    sg = np.where(d > band, 1, np.where(d < -band, -1, 0))
    nz = np.nonzero(sg)[0]
    if nz.size == 0:
        return float(r_alpha), 0.0
    first = sg[nz[0]]
    flips = np.nonzero(sg[nz] != first)[0]
    if flips.size == 0:
        raise NoCrossing(
            "difference keeps one sign beyond the equality band; "
            "profiles do not cross")
    j = nz[flips[0] - 1]
    k = nz[flips[0]]
    r1 = x[j] + d[j] * (x[k] - x[j]) / (d[j] - d[k])

    left = x <= r1
    viol = max(float(np.max(d[left], initial=0.0)),
               float(np.max(-d[~left], initial=0.0)), 0.0)
    return float(r1), viol


def reverse_holder(u: EigenPair, z: EigenPair, r: float,
                   t_grid) -> HolderReport:
    """Norm-ratio report ||.||_t / ||.||_r for instance versus model.

    The ratios are scale-invariant, so the matched-norm normalization
    cancels out of them; it enters only the deficit delta, which is
    evaluated when r = p-1 over the exponents of t_grid above p-1.
    """
    check_exponent("base exponent r", r)
    _check_pair(u, z, u.p)
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        raise InvalidParameter("t_grid must be nonempty")
    if any(t < r - 1e-12 for t in ts):
        raise InvalidParameter("every exponent in t_grid must be >= r")

    p = u.p
    matched = abs(r - (p - 1.0)) <= 1e-12
    nu, nz = _norms(u, z, (r, *ts, *((p - 1.0,) if matched else ())))
    ratios_u = {t: nu[t] / nu[r] for t in ts}
    ratios_z = {t: nz[t] / nz[r] for t in ts}
    if not all(math.isfinite(x) and x > 0.0
               for x in (*ratios_u.values(), *ratios_z.values())):
        raise CheckFailure("norm ratios must be finite and positive")

    if matched:
        delta = max(_deficits(p, nu, nz,
                              [t for t in ts if t > p - 1.0 + 1e-12]),
                    default=0.0)
    else:
        delta = math.nan
    return HolderReport(t_grid=ts, ratios_instance=ratios_u,
                        ratios_model=ratios_z, delta=delta,
                        scale=nu[r] / nz[r])


def _deficits(p: float, nu: dict, nz: dict, ts) -> list[float]:
    """Clamped deficit per exponent of ts from the instance norms nu and
    the model norms nz, under the matched (p-1)-norm normalization."""
    e = p - 1.0
    c = nu[e] / nz[e]
    if p >= 2.0:
        return [max(0.0, (c * nz[t]) ** e - nu[t] ** e) for t in ts]
    return [max(0.0, max(c * nz[t] - nu[t], 0.0) ** e) for t in ts]


def stability_deficits(u: EigenPair, z: EigenPair, p: float,
                       Q) -> tuple[float, ...]:
    """Norm deficit per exponent of Q under the matched (p-1)-norm
    normalization, each clamped at 0.

    For p >= 2 each term is ||z||_t^{p-1} - ||u||_t^{p-1}; for p in
    (1, 2) it is the clamped difference raised to p-1.  Zero means the
    instance eigenfunction is norm-indistinguishable from the model one;
    the worst term grows with the geometric gap in shifted-family sweeps
    and is reported as a diagnostic, not a certified bound.
    """
    _check_pair(u, z, p)
    ts = tuple(float(t) for t in Q)
    if not ts:
        raise InvalidParameter("Q must be nonempty")
    if any(t <= p - 1.0 + 1e-12 for t in ts):
        raise InvalidParameter("every exponent in Q must lie strictly above p-1")
    return tuple(_deficits(p, *_norms(u, z, (p - 1.0, *ts)), ts))
