"""One-dimensional model geometry for positive curvature bounds.

For curvature parameter K > 0 and dimension parameter N > 1 the model
is the segment [0, L] with L = pi * sqrt((N-1)/K), carrying the
probability density

    h(t) = sin(t * sqrt(K/(N-1)))**(N-1) / c,

where c normalizes the total mass to one.  The cumulative H, its
inverse and the profile I(v) = h(H^{-1}(v)) are the basic objects the
rest of the kit symmetrizes against: I(v) is the sharp lower bound for
the perimeter of a set of mass v in any space with the same curvature
and dimension bounds.

The model is a WeightedInterval, the positive density on a segment with
tabulated cumulative mass that every solver takes; shifted caps are
plain instances of the same type, whose density is the same sine_power
cut at an offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .errors import InvalidParameter, OutOfDomain


class WeightedInterval:
    """Positive density on [0, length] with tabulated cumulative mass.

    cd carries an optional curvature-dimension tag (K, N); densities
    built from shifted model profiles satisfy the one-dimensional
    criterion (w^{1/(N-1)})'' + K/(N-1) * w^{1/(N-1)} <= 0, which
    cd_violation estimates by second differences.
    """

    def __init__(self, density: Callable, length: float,
                 cd: tuple[float, float] | None = None) -> None:
        self._density = density
        self.length = float(length)
        self.cd = cd
        self._table = numerics.MonotoneTable(density, length)
        self.total = self._table.total

    def density(self, t):
        return self._density(t)

    def cumulative(self, t):
        return self._table.cumulative(t)

    def inverse_cumulative(self, v):
        return self._table.inverse(v)

    def profile(self, s):
        """Perimeter of the sublevel interval holding mass s."""
        return self.density(self.inverse_cumulative(s))

    def cd_violation(self) -> float:
        """Max second-difference residual of the concavity criterion.

        Uses the five-point stencil so the discretization bias stays a
        few orders below the 1e-8 acceptance band on 10^3 probes.
        """
        if self.cd is None:
            raise InvalidParameter("interval carries no curvature-dimension tag")
        K, N = self.cd
        # two extra samples on each side give 10^3 stencil centres
        ts = np.linspace(0.0, self.length, 1000 + 4)
        g = np.asarray(self.density(ts), dtype=float) ** (1.0 / (N - 1.0))
        h2 = (ts[1] - ts[0]) ** 2
        second = (-g[:-4] + 16.0 * g[1:-3] - 30.0 * g[2:-2]
                  + 16.0 * g[3:-1] - g[4:]) / (12.0 * h2)
        resid = second + (K / (N - 1.0)) * g[2:-2]
        return float(np.max(resid))


def check_curvature_dimension(K: float, N: float) -> None:
    """Raise InvalidParameter unless K > 0 and N > 1, both finite."""
    if not (K > 0.0 and math.isfinite(K)):
        raise InvalidParameter(f"curvature K={K} must be positive")
    if not (N > 1.0 and math.isfinite(N)):
        raise InvalidParameter(f"dimension N={N} must exceed 1")


def sine_power(K: float, N: float, shift: float = 0.0):
    """Unnormalized model density cut at shift, and the segment length L.

    Returns (raw, L) with L = pi * sqrt((N-1)/K) and
    raw(t) = sin(sqrt(K/(N-1)) * (t + shift))**(N-1) on [0, L - shift].
    A float argument goes through math.sin; array entries at and beyond
    L - shift are pinned to the exact limit 0, since sin(pi) rounds to
    about 1e-16.
    """
    scale = math.sqrt(K / (N - 1.0))
    L = math.pi / scale
    length = L - shift
    expo = N - 1.0

    def raw(t):
        if isinstance(t, float):
            if t >= length:
                return 0.0
            return max(math.sin(scale * (t + shift)), 0.0) ** expo
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.maximum(np.sin(scale * (arr + shift)), 0.0) ** expo
        out[arr >= length] = 0.0
        return out if np.ndim(t) else float(out[0])

    return raw, L


@dataclass(frozen=True)
class ModelConstants:
    """Small-radius comparison constants.

    gamma1 bounds the density from above via gamma1 * t**(N-1) and
    gamma2 = gamma1 / N plays the same role for the cumulative.
    """

    gamma1: float
    gamma2: float


class ModelSpace(WeightedInterval):
    """The model segment: closed-form density, normalized cumulative.

    The cumulative is divided by the table total, so H(L) == 1.0 exactly
    and total is 1.0; the profile is the inherited I(v) = h(H^{-1}(v)).
    """

    def __init__(self, K: float, N: float) -> None:
        check_curvature_dimension(K, N)
        self.K = float(K)
        self.N = float(N)
        self._raw, self.L = sine_power(self.K, self.N)
        self.c = numerics.integrate(self._raw, 0.0, self.L)
        super().__init__(self.density, self.L, cd=(self.K, self.N))
        self.total = 1.0

    def __repr__(self) -> str:
        return f"ModelSpace(K={self.K}, N={self.N}, L={self.L:.6g})"

    def density(self, t):
        """Normalized density h(t); zero at both endpoints by continuity."""
        slack = 1e-12 * self.L
        if isinstance(t, float):
            # scalar path for the shooting RHS: math.sin, no array setup
            if t < -slack or t > self.L + slack:
                raise OutOfDomain(f"density argument outside [0, {self.L}]")
            return self._raw(max(t, 0.0)) / self.c
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(arr < -slack) or np.any(arr > self.L + slack):
            raise OutOfDomain(f"density argument outside [0, {self.L}]")
        out = self._raw(np.clip(arr, 0.0, self.L)) / self.c
        return out if np.ndim(t) else float(out[0])

    def cumulative(self, t):
        """Mass H(t) of [0, t], normalized so that H(L) = 1."""
        out = np.asarray(self._table.cumulative(t)) / self._table.total
        out = np.clip(out, 0.0, 1.0)
        return out if np.ndim(t) else float(out)

    def inverse_cumulative(self, v):
        """Radius enclosing mass v; inverse of cumulative on [0, 1]."""
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise OutOfDomain("mass fraction outside [0, 1]")
        out = self._table.inverse(np.clip(arr, 0.0, 1.0) * self._table.total)
        return out if np.ndim(v) else float(out[0])

    isoperimetric_profile = WeightedInterval.profile

    def constants(self) -> ModelConstants:
        gamma1 = math.sqrt(self.K / (self.N - 1.0)) ** (self.N - 1.0) / self.c
        return ModelConstants(gamma1=gamma1, gamma2=gamma1 / self.N)

