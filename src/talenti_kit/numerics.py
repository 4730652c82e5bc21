"""Shared numerical kernels.

Everything downstream leans on two primitives that live here:

* ``integrate``: adaptive Gauss-Kronrod quadrature on a finite interval.
  Panels are bisected by worst-error-first priority.  A panel that keeps
  touching an interval endpoint at high depth is handed to a geometric
  tail loop that shrinks dyadically toward the endpoint, models the
  annulus contributions as a geometric series and either sums the tail in
  closed form (integrable power singularities such as ``t**-0.5``) or
  declares ``Divergence`` when the annuli refuse to decay.

* ``MonotoneTable``: a tabulated cumulative of a positive density on
  ``[0, L]``.  Its grid is a coarse cosine base whose end intervals are
  graded geometrically into the endpoints, where densities vanish or
  blow up like powers, and known kinks are pinned to cell edges.
  Pointwise evaluation is machine-accurate: the table value at the
  nearest node plus one Clenshaw sum of the cell's Chebyshev
  antiderivative, built from the same Kronrod node values.  The first
  cell follows a power law fitted to its nodes, the last integrates one
  Kronrod panel, and the inverse is a vectorized, per-point guarded
  Newton iteration.

Integrands passed to these kernels must accept numpy arrays and evaluate
elementwise; none of the rules ever samples an interval endpoint, so
integrable endpoint singularities are safe.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import Divergence, InvalidParameter, NonConvergence, OutOfDomain

_EPS = float(np.finfo(float).eps)
# dyadic refinement depth at which integrate gives up on a panel
MAX_SUBDIVISIONS = 60


@dataclass(frozen=True)
class Tolerance:
    """Accuracy targets shared by the iterative kernels.

    rel must stay above 8 machine epsilons and abs must be positive.
    """

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.rel >= 8.0 * _EPS):
            raise InvalidParameter(f"rel={self.rel} must be >= 8*eps")
        if not (self.abs > 0.0):
            raise InvalidParameter(f"abs={self.abs} must be positive")


DEFAULT_TOL = Tolerance()


def cosine_grid(a: float, b: float, n_cells: int) -> np.ndarray:
    """n_cells + 1 Chebyshev-style abscissas on [a, b], clustered at both ends."""
    if not (b > a):
        raise InvalidParameter("cosine grid needs b > a")
    theta = np.linspace(0.0, math.pi, n_cells + 1)
    return a + (b - a) * 0.5 * (1.0 - np.cos(theta))


# 15-point Kronrod extension of 7-point Gauss, abscissas on [-1, 1].
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])
_OFFSETS = 0.5 * (_NODES + 1.0)                             # in (0, 1)


def _antiderivative_row(j: int) -> np.ndarray:
    """Chebyshev coefficients of the antiderivative, zero at -1, of the
    Lagrange polynomial that is 1 at Kronrod node j and 0 at the others."""
    basis = _cheb.chebfromroots(np.delete(_NODES, j))
    return _cheb.chebint(basis / _cheb.chebval(_NODES[j], basis), lbnd=-1.0)


# Node values times this 15x16 map are the Chebyshev coefficients on
# [-1, 1] of the antiderivative, zero at -1, of the degree-14 interpolant
# through the nodes; its value at 1 is the K15 sum.  Built from products
# of roots, so no LAPACK call is made at import.
_ANTIDERIV = np.array([_antiderivative_row(j) for j in range(15)])


def _node_values(f, lefts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """f at the 15 Kronrod nodes of each panel, one row per panel."""
    pts = lefts[:, None] + widths[:, None] * _OFFSETS[None, :]
    return np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)


def _panels(f, lefts: np.ndarray, rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and |K15 - G7| error estimate for a batch of panels.

    The 15-point contractions go through einsum, not BLAS: a threaded
    matrix-vector product this small costs CPU without saving time.
    """
    lefts = np.atleast_1d(np.asarray(lefts, dtype=float))
    rights = np.atleast_1d(np.asarray(rights, dtype=float))
    widths = rights - lefts
    vals = _node_values(f, lefts, widths)
    half = 0.5 * widths
    k15 = half * np.einsum("ij,j->i", vals, _WEIGHTS_K)
    g7 = half * np.einsum("ij,j->i", vals[:, _GAUSS_IDX], _WEIGHTS_G)
    return k15, np.abs(k15 - g7)


# Annulus-to-annulus decay at or above this ratio counts as "not decaying"
# for the divergence detector; anything below feeds the geometric tail sum.
_TAIL_STALL_RATIO = 0.9995
_TAIL_STALL_LIMIT = 40


def _endpoint_tail(f, x0: float, x1: float, side: int, budget: float,
                   total_hint: float, tol: Tolerance) -> tuple[float, float]:
    """Integrate f over a panel that touches a (possibly singular) endpoint.

    side=0 means the singular end is at x0 (left), side=1 at x1 (right).
    Returns (value, error) for the whole panel [x0, x1].
    """
    settled = 0.0
    settled_err = 0.0
    annuli: list[float] = []
    stall = 0
    prev_result = None
    for _ in range(400):
        width = x1 - x0
        if width <= 0.0 or not math.isfinite(width):
            return settled, settled_err
        mid = x0 + 0.5 * width
        if side == 0:
            (ann, tip), (aerr, _terr) = _panels(f, [mid, x0], [x1, mid])
            x1 = mid
        else:
            (ann, tip), (aerr, _terr) = _panels(f, [x0, mid], [mid, x1])
            x0 = mid
        settled += ann
        settled_err += aerr
        annuli.append(ann)
        current = total_hint + settled + tip
        floor = max(tol.abs, tol.rel * abs(current))
        if len(annuli) >= 2 and annuli[-2] != 0.0:
            ratio = abs(annuli[-1]) / abs(annuli[-2])
        else:
            ratio = 0.0
        if abs(ann) > floor and ratio >= _TAIL_STALL_RATIO:
            stall += 1
            if stall >= _TAIL_STALL_LIMIT:
                raise Divergence(
                    "endpoint refinements stopped reducing the integral; "
                    "the integrand looks non-integrable at the endpoint"
                )
        else:
            stall = 0
        if len(annuli) >= 4:
            r = [abs(annuli[-i]) / abs(annuli[-i - 1])
                 for i in (1, 2, 3) if annuli[-i - 1] != 0.0]
            if len(r) == 3:
                spread = max(r) - min(r)
                rho = r[0]
                if rho < _TAIL_STALL_RATIO and spread <= 0.05 * (1.0 - rho):
                    tail = annuli[-1] * rho / (1.0 - rho)
                    tail_err = (abs(annuli[-1]) * 2.0 * spread / (1.0 - rho) ** 2
                                + settled_err)
                    result = settled + tail
                    if prev_result is not None:
                        tail_err += abs(result - prev_result)
                    prev_result = result
                    if tail_err <= budget:
                        return result, tail_err
            if all(a == 0.0 for a in annuli[-3:]) and tip == 0.0:
                return settled, settled_err
    raise NonConvergence("endpoint tail refinement exhausted its budget")


def integrate(f, a: float, b: float, tol: Tolerance | None = None) -> float:
    """Adaptive quadrature of a vectorized integrand over [a, b].

    Integrable endpoint singularities are summed by geometric tail
    extrapolation; non-integrable ones raise Divergence.  Interior
    trouble that survives MAX_SUBDIVISIONS bisections raises
    NonConvergence.
    """
    tol = tol or DEFAULT_TOL
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameter("integration bounds must be finite")
    if a == b:
        return 0.0
    if a > b:
        raise InvalidParameter("integration needs a <= b")

    # depth at which an endpoint-touching panel is handed to the tail loop
    tail_depth = 12

    (val,), (err,) = _panels(f, [a], [b])
    heap: list[tuple[float, int, float, float, float, float, int]] = []
    counter = 0
    heapq.heappush(heap, (-err, counter, a, b, val, err, 0))
    heap_val = val
    heap_err = err
    settled_val = 0.0
    settled_err = 0.0
    left_done = False
    right_done = False

    for _ in range(20000):
        total = settled_val + heap_val
        target = max(tol.abs, tol.rel * abs(total))
        if settled_err + heap_err <= target or not heap:
            return total
        neg, _, pa, pb, pv, pe, depth = heapq.heappop(heap)
        heap_val -= pv
        heap_err -= pe
        touches_left = (pa == a) and not left_done
        touches_right = (pb == b) and not right_done
        if depth >= tail_depth and (touches_left or touches_right):
            side = 0 if touches_left else 1
            budget = max(0.25 * target, tol.abs)
            tv, te = _endpoint_tail(f, pa, pb, side, budget,
                                    settled_val + heap_val, tol)
            settled_val += tv
            settled_err += te
            if side == 0:
                left_done = True
            else:
                right_done = True
            continue
        if depth >= MAX_SUBDIVISIONS:
            raise NonConvergence(
                f"panel [{pa}, {pb}] still fails tolerance at depth {depth}"
            )
        mid = pa + 0.5 * (pb - pa)
        if mid <= pa or mid >= pb:
            # width at rounding floor; accept the panel as settled
            settled_val += pv
            settled_err += pe
            continue
        (v1, v2), (e1, e2) = _panels(f, [pa, mid], [mid, pb])
        counter += 1
        heapq.heappush(heap, (-e1, counter, pa, mid, v1, e1, depth + 1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, pb, v2, e2, depth + 1))
        heap_val += v1 + v2
        heap_err += e1 + e2
    raise NonConvergence("quadrature panel budget exhausted")


# Newton rounds the table inverse may spend before NonConvergence.
_NEWTON_ROUNDS = 100
# live points the table inverse solves at a time
_INVERSE_BLOCK = 8192
# cosine grid intervals of every table's base; each is split into two cells
_TABLE_CELLS = 64
# points at 2**-k, k = 1.._END_GRADES, of the way to each endpoint that
# replace the base grid's two end intervals on either side
_END_GRADES = 40


def _power_exponent(vals: np.ndarray) -> float:
    """Exponent k of the cumulative c * t**k whose density passes through
    the first cell's outermost Kronrod node values, or 0.0 when those
    values do not fit a power law with k > 0."""
    lo, hi = float(vals[0]), float(vals[-1])
    if not (lo > 0.0 and hi > 0.0 and math.isfinite(lo) and math.isfinite(hi)):
        return 0.0
    k = 1.0 + math.log(hi / lo) / math.log(_OFFSETS[-1] / _OFFSETS[0])
    return k if k > 0.0 and math.isfinite(k) else 0.0


def _graded_grid(length: float) -> np.ndarray:
    """Cosine base grid on [0, length] whose first and last two
    intervals give way to points halving towards the endpoint.

    Neighbouring grading points differ by a factor 2.  Grading from the
    second cosine node leaves 9/4 as the largest ratio next to the
    grading; from the first node it would be 4, and t**1.5 would lose
    about 20 times more relative accuracy there.  Right-end points
    within 64 eps * length of length are dropped, since they would
    round onto it and leave cells of zero width.
    """
    base = cosine_grid(0.0, length, _TABLE_CELLS)
    grades = 2.0 ** -np.arange(_END_GRADES, 0, -1)
    left = base[2] * grades
    right = length - (length - base[-3]) * grades[::-1]
    right = right[length - right > 64.0 * _EPS * length]
    return np.concatenate([[0.0], left, base[2:-2], right, [length]])


class MonotoneTable:
    """Tabulated cumulative of a positive density on [0, length].

    The grid is the _graded_grid of _TABLE_CELLS cosine intervals with
    _END_GRADES points grading each end, so a density behaving like a
    power of the distance to an endpoint stays spectrally resolved in
    every cell.  Pinned knots (known kinks or jumps) join the grid, and
    each interval is split into two cells.  The density is evaluated
    once at the 15 Kronrod nodes of every cell.  The Kronrod sums give
    the table entries, and a fixed linear map turns the same values
    into the Chebyshev coefficients of each cell's antiderivative.  A
    pointwise value is the table entry at the nearest node below plus
    one Clenshaw sum in that cell, with no density call.  The first
    cell holds the cumulative c*t**k whose density passes through its
    outermost nodes: a Kronrod sum of a power law there loses relative
    accuracy that every later entry would inherit.  A first cell that
    fits no such law, and the last cell, integrate one Kronrod panel
    over the remainder instead.  The inverse runs, _INVERSE_BLOCK
    points at a time, a vectorized
    guarded Newton iteration inside the bracketing cell on the same
    sums, with the density as the derivative.  Each point starts from a
    power-law guess fitted to its cell, exact when the cell cumulative
    is c*(t - lo)**k; the fit samples the density at the cell's right
    edge, and a non-finite value there gives a linear guess.  Steps that
    would leave the shrinking bracket fall back to bisection, each point
    stops on its own Newton step (within 4e-16 * length, and within
    1e-14 * t near 0), and targets 0 and total are pinned to
    the endpoints without iterating.  Points still unsettled after
    _NEWTON_ROUNDS rounds raise NonConvergence.
    """

    def __init__(self, density, length: float, knots=()) -> None:
        if not (length > 0.0 and math.isfinite(length)):
            raise InvalidParameter("length must be positive and finite")
        self.density = density
        self.length = float(length)
        base = _graded_grid(self.length)
        pins = np.asarray(knots, dtype=float)
        if pins.size:
            # pin known kinks/jumps of the density to cell edges so no
            # cell straddles them; cells stay spectrally accurate
            if np.any(pins <= 0.0) or np.any(pins >= self.length):
                raise InvalidParameter("knots must lie strictly inside (0, length)")
            # keep a point only if its midpoint with the left neighbour
            # lies strictly inside: a pin an ulp off a node makes no cell
            base = np.sort(np.concatenate([base, pins]))
            mid = 0.5 * (base[:-1] + base[1:])
            base = base[np.r_[True, (base[:-1] < mid) & (mid < base[1:])]]
        fine = np.empty(2 * base.size - 1)
        fine[0::2] = base
        fine[1::2] = 0.5 * (base[:-1] + base[1:])
        self._x = fine
        widths = np.diff(fine)
        vals = _node_values(density, fine[:-1], widths)
        half = 0.5 * widths
        inc = half * np.einsum("ij,j->i", vals, _WEIGHTS_K)
        # exponent k of the first cell's power law, 0.0 if none fits
        self._k0 = _power_exponent(vals[0])
        if self._k0:
            inc[0] = widths[0] * vals[0, -1] / (
                _OFFSETS[-1] ** (self._k0 - 1.0) * self._k0)
        self._c = np.concatenate([[0.0], np.cumsum(inc)])
        self.total = float(self._c[-1])
        # one row per Chebyshev degree: a query gathers row by row
        self._coef = np.einsum("ij,jk->ki", vals, _ANTIDERIV)
        self._coef *= half

    def _increment(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Integral of the density over [x[idx], t] for t in cell idx."""
        x0 = self._x[idx]
        s = 2.0 * (t - x0) / (self._x[idx + 1] - x0) - 1.0
        # Clenshaw's recurrence, gathering one coefficient row at a time
        s2 = 2.0 * s
        b1, b2 = self._coef[-1, idx], 0.0
        for row in self._coef[-2:0:-1]:
            b1, b2 = row[idx] + s2 * b1 - b2, b1
        out = self._coef[0, idx] + s * b1 - b2
        kronrod = idx == self._x.size - 2
        if self._k0:
            first = idx == 0
            out[first] = self._c[1] * (t[first] / self._x[1]) ** self._k0
        else:
            kronrod |= idx == 0
        end = np.flatnonzero(kronrod)
        if end.size:
            out[end] = _panels(self.density, x0[end], t[end])[0]
        return out

    def cumulative(self, t):
        """Integral of the density over [0, t]; accepts scalars or arrays."""
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        slack = 1e-12 * self.length
        if np.any(arr < -slack) or np.any(arr > self.length + slack):
            raise OutOfDomain(f"cumulative argument outside [0, {self.length}]")
        clipped = np.clip(arr, 0.0, self.length)
        idx = np.clip(np.searchsorted(self._x, clipped, side="right") - 1,
                      0, self._x.size - 2)
        out = self._c[idx] + self._increment(idx, clipped)
        out = np.clip(out, 0.0, self.total)
        return out if np.ndim(t) else float(out[0])

    def inverse(self, v):
        """Abscissa t with cumulative(t) = v; accepts scalars or arrays."""
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        slack = 1e-12 * max(self.total, 1.0)
        if np.any(arr < -slack) or np.any(arr > self.total + slack):
            raise OutOfDomain(f"inverse argument outside [0, {self.total}]")
        clipped = np.clip(arr, 0.0, self.total)
        out = np.where(clipped >= self.total, self.length, clipped)
        live = np.flatnonzero((clipped > 0.0) & (clipped < self.total))
        # Newton settles each point on its own, so solving in blocks
        # bounds the working arrays without changing a bit of the output
        for lo in range(0, live.size, _INVERSE_BLOCK):
            block = live[lo:lo + _INVERSE_BLOCK]
            out[block] = self._solve(clipped[block])
        return out if np.ndim(v) else float(out[0])

    def _solve(self, target: np.ndarray) -> np.ndarray:
        """Guarded Newton for targets strictly inside (0, total)."""
        idx = np.searchsorted(self._c, target, side="right") - 1
        lo = self._x[idx]
        hi = self._x[idx + 1]
        base = self._c[idx]
        mass = self._c[idx + 1] - base
        width = hi - lo
        # power-law start: a cell cumulative c*(t - lo)**k has
        # k = width * density(hi) / mass, so the guess is exact where the
        # density vanishes like a power at lo and linear where it is smooth
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = width * np.asarray(self.density(hi), dtype=float) / mass
            k = np.where(np.isfinite(k) & (k > 0.0), k, 1.0)
            t = lo + width * ((target - base) / mass) ** (1.0 / k)
        t = np.clip(t, lo, hi)
        out = np.empty_like(target)
        todo = np.arange(target.size)
        floor = 4e-16 * self.length
        # each point stops on its own Newton step, tested before the
        # bracket guard; steps leaving the bracket fall back to bisection.
        # The stop is relative to t near 0, where the absolute floor would
        # pass a first step that still carries a relative error
        for _ in range(_NEWTON_ROUNDS):
            step_tol = np.minimum(floor, 1e-14 * t)
            ft = base + self._increment(idx, t) - target
            below = ft < 0.0
            lo = np.where(below, t, lo)
            hi = np.where(below, hi, t)
            d = np.asarray(self.density(t), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                tn = t - ft / d
            converged = np.abs(tn - t) <= step_tol
            bad = ~converged & (~np.isfinite(tn) | (tn <= lo) | (tn >= hi))
            tn = np.where(bad, 0.5 * (lo + hi), np.clip(tn, lo, hi))
            done = np.abs(tn - t) <= step_tol
            out[todo[done]] = tn[done]
            keep = ~done
            if not keep.any():
                return out
            todo, t, target = todo[keep], tn[keep], target[keep]
            idx, lo, hi, base = idx[keep], lo[keep], hi[keep], base[keep]
        raise NonConvergence(
            f"table inverse left {todo.size} of {out.size} points unsettled "
            f"after {_NEWTON_ROUNDS} Newton rounds")
