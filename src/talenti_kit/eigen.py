"""First Dirichlet eigenpairs of the weighted p-Laplacian on an interval.

On a weighted interval with density w the first eigenfunction is the
positive, nonincreasing solution of

    -(w * Phi_p(z'))' = lam * w * Phi_p(z),   Phi_p(x) = |x|^{p-2} x,

with z(0) = 1, z'(0) = 0 and z(r_v) = 0 at the radius enclosing the
prescribed mass fraction v.  Writing m = w * Phi_p(z') for the flux
turns this into the first-order system

    z' = sign(m) |m / w|^{1/(p-1)},    m' = -lam * w * Phi_p(z),

whose first zero moves continuously and strictly decreasingly with lam
(Elbert 1979), so the eigenvalue is the unique lam placing that zero
exactly at r_v.  The zero scales almost like lam^{-1/p}, so a secant
on log r0 against log lam, started at the seed and kept inside the
bracket the signs seen so far span, finds it in a few solves.  The
same monotonicity inverts the model eigenvalue curve v -> lambda(v)
in one integration: the model ball whose first eigenvalue is a given
lam ends at the first zero of the model solution shot at that lam, so
alpha_from_lambda needs no search over masses, and that solution up to
the zero is the model eigenpair on the ball, with lam as its eigenvalue
by construction.  Both routes build their
EigenPair in _pair_from.  The RHS reads the density one scalar at a
time; model and cap densities answer a float argument through math.sin
without array setup.

The remaining routines compare an instance eigenpair against the model
one: eigenvalue domination, the single-crossing ordering of the
symmetrized eigenfunction, reverse Hoelder norm ratios and the norm
deficit used as a closeness diagnostic.  Model eigenpairs are solved on
the shared model_for segment and not memoized: a caller that needs the
pair at v again holds on to it, so scenarios share nothing but the
read-only model.
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
from .model_space import WeightedInterval
from .radial_poisson import (RadialProblem, RadialSolution, check_exponent,
                             power_signed)
from .talenti_check import model_for

_ATOL = (1e-14, 1e-18)
_NORM_TOL = numerics.Tolerance(rel=1e-11, abs=1e-15)
# solve_ivp solves one eigenvalue search may make
_SHOOTING_SOLVES = 100


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first solve."""
    from scipy.integrate import solve_ivp as ivp
    return ivp(*args, **kwargs)


@dataclass
class EigenPair:
    """Eigenvalue plus the shooting profile and the space it lives on.

    The profile is packaged as a RadialSolution so the weak-residual and
    gradient-norm checks from the Poisson module apply verbatim; its
    mass_at returns the cumulative datum mass int_0^rho lam*z^{p-1} dm,
    which equals minus the flux m and therefore comes straight from the
    integrated system rather than a second quadrature.  z_end is the
    integrated z at r_alpha, which z_at pins to 0.
    """

    lam: float
    sol: RadialSolution
    p: float
    space: WeightedInterval
    v: float
    z_end: float

    @property
    def r_alpha(self) -> float:
        return self.sol.r1

    def z_at(self, t):
        return self.sol.w_at(t)

    def zprime_at(self, t):
        return self.sol.wprime_at(t)

    def problem(self) -> RadialProblem:
        """The Poisson problem the eigenfunction solves (datum lam*Phi_p(z))."""
        lam, p, zf = self.lam, self.p, self.sol.w_at

        def datum(t):
            return lam * np.asarray(zf(t), dtype=float) ** (p - 1.0)

        return RadialProblem(space=self.space, p=p, f=datum, r1=self.sol.r1)

    def rayleigh(self) -> float:
        """Rayleigh quotient of the stored profile, for consistency checks."""
        p = self.p
        return (_integral(self, lambda t: np.abs(self.zprime_at(t)) ** p)
                / _integral(self, lambda t: self.z_at(t) ** p))


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


def _series_start(space: WeightedInterval, p: float, lam: float, eps: float):
    """Initial data at t = eps from the leading-order expansion.

    Near the origin m ~ -lam*W(t) while z stays at 1, and for any
    density behaving like a power the resulting slope integrates to
    (p-1)/p * t * (lam*W/w)^{1/(p-1)} exactly, so the truncation error
    is O(eps^2) relative to the distance from 1.
    """
    W0 = float(space.cumulative(eps))
    w0 = float(np.atleast_1d(np.asarray(space.density(eps), dtype=float))[0])
    z0 = 1.0 - (p - 1.0) / p * eps * (lam * W0 / w0) ** (1.0 / (p - 1.0))
    return z0, -lam * W0


def _first_zero(space: WeightedInterval, p: float, lam: float, eps: float,
                horizon: float, dense: bool = False):
    """(first zero of z in (eps, horizon] or inf, dense output or None)."""
    z0, m0 = _series_start(space, p, lam, eps)
    if z0 <= 0.0:
        return eps, None
    ev = lambda t, y: y[0]
    ev.terminal = True
    ev.direction = -1
    out = solve_ivp(_rhs_factory(space, p, lam), (eps, horizon), (z0, m0),
                    method="DOP853", rtol=1e-11, atol=_ATOL, events=ev,
                    dense_output=dense)
    if out.t_events[0].size:
        return float(out.t_events[0][0]), out.sol
    return math.inf, out.sol


def _shooting_lambda(space: WeightedInterval, p: float, r_v: float,
                     seed: float) -> float:
    """Safeguarded secant on g(lam) = log(r0(lam) / r_v) against log lam.

    r0 falls strictly in lam and scales almost like lam**(-1/p), so the
    first step from the seed is lam * exp(p * g), along that law's slope
    -1/p.  Later steps take the slope of the secant through the last two
    finite values, and keep the previous slope when noise in r0 makes
    the secant's nonnegative.  The signs seen so far keep a bracket
    [lo, hi]; no zero before the horizon counts as g > 0.  While hi is
    unknown a step goes at most to 2 * lo, since r0 flattens near the
    end of a segment and secants there overshoot by orders of magnitude.
    A step leaving a closed bracket halves hi while lo is unknown, and
    takes the geometric midpoint otherwise.  The loop stops once the
    bracket is within 5e-13 * hi or a step within 1e-14 * lam, and
    raises NonConvergence when _SHOOTING_SOLVES solves do not get there.
    """
    eps = 1e-6 * r_v
    horizon = r_v + min(0.25 * r_v, 0.9 * (space.length - r_v))
    lo, hi = 0.0, math.inf
    lam, prev, slope = seed, None, -1.0 / p
    for _ in range(_SHOOTING_SOLVES):
        f = math.log(_first_zero(space, p, lam, eps, horizon)[0] / r_v)
        if f == 0.0:
            return lam
        if f > 0.0:
            lo = lam
        else:
            hi = lam
        if lo >= (1.0 - 5e-13) * hi:
            return 0.5 * (lo + hi)
        nxt = math.nan
        if math.isfinite(f):
            if prev is not None:
                sec = (f - prev[1]) / math.log(lam / prev[0])
                if sec < 0.0:
                    slope = sec
            nxt = lam * math.exp(-f / slope)
            prev = (lam, f)
        if hi == math.inf:
            nxt = min(nxt, 2.0 * lo) if nxt > lo else 2.0 * lo
        elif not lo < nxt < hi:
            nxt = 0.5 * hi if lo == 0.0 else math.sqrt(lo * hi)
        if abs(nxt - lam) <= 1e-14 * lam:
            return nxt
        lam = nxt
    raise NonConvergence(
        f"shooting eigenvalue unsettled after {_SHOOTING_SOLVES} solves "
        f"(bracket [{lo:.6g}, {hi:.6g}])")


def first_eigenpair(space: WeightedInterval, v: float, p: float,
                    seed: float | None = None) -> EigenPair:
    """Shooting solve for the first Dirichlet eigenpair at mass fraction v.

    v is the mass of the domain; a constant multiple of the density
    builds the same unit-mass space, so the answer is invariant under
    rescaling the density by construction.  seed is where the shooting
    secant starts, (pi / (2 r_v))**p by default; callers holding a
    nearby eigenvalue (model comparisons, parameter sweeps) pass it and
    save solves.
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise InvalidParameter(f"exponent p={p} must exceed 1")
    if not (0.0 < v < 1.0 and math.isfinite(v)):
        raise InvalidMass(f"mass fraction v={v} must lie in (0, 1)")
    r_v = float(space.inverse_cumulative(v))
    probes = np.linspace(0.0, r_v, 258)[1:]
    if np.any(np.asarray(space.density(probes), dtype=float) <= 0.0):
        raise InvalidParameter("density must stay positive on (0, r_v]")

    if seed is None:
        seed = (math.pi / (2.0 * r_v)) ** p
    lam = _shooting_lambda(space, p, r_v, float(seed))

    eps = 1e-6 * r_v
    z0, m0 = _series_start(space, p, lam, eps)
    out = solve_ivp(_rhs_factory(space, p, lam), (eps, r_v), (z0, m0),
                    method="DOP853", rtol=1e-11, atol=_ATOL,
                    dense_output=True)
    if not out.success:
        raise NonConvergence("final eigenfunction integration failed")
    return _pair_from(space, p, lam, v, eps, r_v, out.sol)


def _pair_from(space: WeightedInterval, p: float, lam: float, v: float,
               eps: float, r_v: float, interp) -> EigenPair:
    """EigenPair of the shooting solution interp (dense on [eps, r_v]);
    its z_at, zprime_at and mass_at read one state (z, m) on t clipped to
    [0, r_v], and z_at pins z = 0 from r_v on."""
    end = float(interp(r_v)[0])
    if abs(end) > 1e-6:
        raise NonConvergence(
            f"shooting left a boundary mismatch z(r_v)={end:.3e}")

    e = 1.0 / (p - 1.0)
    coef = (p - 1.0) / p
    cum, dens = space.cumulative, space.density

    def slope(c, m):
        # z' = sign(m) |m/w|^{1/(p-1)}; at the model's origin w = 0 and
        # m = -0, so z'(0) = -0
        w = np.asarray(dens(c), dtype=float)
        return power_signed(m / np.where(w > 0.0, w, 1.0), e)

    def state(t):
        # (clipped t, z, m): up to eps the series start, m = -lam*W and
        # z = 1 + (p-1)/p * t * z', and interp above
        c = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), 0.0, r_v)
        z, m = np.empty_like(c), np.empty_like(c)
        small = c <= eps
        if np.any(small):
            a = c[small]
            m[small] = -lam * np.asarray(cum(a), dtype=float)
            z[small] = 1.0 + coef * a * slope(a, m[small])
        rest = ~small
        if np.any(rest):
            z[rest], m[rest] = interp(c[rest])
        return c, z, m

    def pinned(c, z):
        z[c >= r_v] = 0.0
        return np.maximum(z, 0.0, out=z)

    def z_at(t):
        c, z, _ = state(t)
        z = pinned(c, z)
        return z if np.ndim(t) else float(z[0])

    def zprime_at(t):
        c, _, m = state(t)
        val = slope(c, m)
        return val if np.ndim(t) else float(val[0])

    def mass_at(rho):
        _, _, m = state(rho)
        return -m if np.ndim(rho) else -float(m[0])

    # one state on the grid serves the negativity scan, w and wprime
    grid = numerics.cosine_grid(0.0, r_v, 2048)
    c, z, m = state(grid)
    raw = z[(grid > eps) & (grid < r_v)]
    if raw.size and float(np.min(raw)) < -1e-6:
        raise NonConvergence("eigenfunction went negative inside the domain")
    sol = RadialSolution(grid=grid, w=pinned(c, z), wprime=slope(c, m),
                         r1=r_v, w_at=z_at, wprime_at=zprime_at,
                         mass_at=mass_at)
    return EigenPair(lam=lam, sol=sol, p=p, space=space, v=float(v),
                     z_end=end)


def model_eigenpair(K: float, N: float, p: float, v: float) -> EigenPair:
    """First eigenpair of the model segment at mass fraction v."""
    return first_eigenpair(model_for(K, N), v, p)


def alpha_from_lambda(up: EigenPair,
                      lambda_target: float) -> tuple[float, EigenPair]:
    """Mass fraction alpha <= up.v whose model eigenvalue hits the
    target, and the model eigenpair at alpha.

    up is the model eigenpair at the upper mass fraction v_upper = up.v,
    which the caller already holds; its space, p and v give the model,
    the exponent and the upper bound.  The first zero of the model
    shooting solution decreases strictly in lam, so the ball on which
    lambda_target is the first eigenvalue ends at the first zero r0 of
    the solution shot at lam = lambda_target, and alpha = H(r0).  One
    integration on [0, r(v_upper)] finds it; no search over alpha and
    no model eigenpair solve.  The same integration, up to r0, is the
    returned pair, so its eigenvalue is lambda_target by construction.
    A target within 1e-9 * target of up.lam, or under it by less than
    the relative gate, returns v_upper and up itself; a target further
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

    r_up = up.r_alpha
    eps = 1e-6 * r_up
    r0, interp = _first_zero(model, p, lambda_target, eps, r_up, True)
    if interp is None or not math.isfinite(r0):
        raise NonConvergence(
            f"model solution at lambda={lambda_target:.6g} has no zero "
            f"past its series start inside the ball of mass v_upper={v_upper}")
    alpha = float(model.cumulative(r0))
    return alpha, _pair_from(model, p, lambda_target, alpha, eps, r0, interp)


def faber_krahn_check(space: WeightedInterval, v: float,
                      p: float) -> FaberKrahnResult:
    """Instance eigenpair versus the model one at equal mass fraction."""
    if space.cd is None:
        raise InvalidParameter("instance carries no curvature-dimension tag")
    K, N = space.cd
    zm = model_eigenpair(K, N, p, v)
    zi = first_eigenpair(space, v, p, seed=zm.lam)
    return FaberKrahnResult(instance=zi, model=zm, margin=zi.lam - zm.lam)


def _integral(pair: EigenPair, g) -> float:
    """int_0^{r_alpha} g dm over the pair's own weighted interval."""
    dens = pair.space.density
    return numerics.integrate(
        lambda x: g(x) * np.asarray(dens(x), dtype=float),
        0.0, pair.sol.r1, _NORM_TOL)


def lp_norm(pair: EigenPair, t: float) -> float:
    """(int z^t dm)^{1/t} over the pair's own weighted interval."""
    check_exponent("norm exponent t", t)
    return _integral(pair, lambda x: pair.z_at(x) ** t) ** (1.0 / t)


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
