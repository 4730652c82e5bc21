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

The model is a WeightedInterval, the probability space on a segment
that every solver takes, normalized by construction; shifted caps are
plain instances of the same type, whose density is the same sine_power
cut at an offset.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import numerics
from .errors import InvalidParameter, OutOfDomain


class WeightedInterval:
    """Probability density on [0, length] with tabulated cumulative mass.

    The given density is divided by its integral c, and the cumulative
    by its table total, so total is 1.0, cumulative(length) == 1.0
    exactly, and any constant multiple of a density builds one space.

    cd carries an optional curvature-dimension tag (K, N); densities
    built from shifted model profiles satisfy the one-dimensional
    criterion (w^{1/(N-1)})'' + K/(N-1) * w^{1/(N-1)} <= 0, which
    cd_violation estimates by second differences.
    """

    total = 1.0

    def __init__(self, density: Callable, length: float,
                 cd: tuple[float, float] | None = None) -> None:
        self.length = float(length)
        self.cd = cd
        self.c = c = numerics.integrate(density, 0.0, self.length)
        if not (c > 0.0 and math.isfinite(c)):
            raise InvalidParameter(f"density mass {c} must be positive")
        # a plain function, so the table holds no cycle back to the space
        self._density = lambda t: density(t) / c
        self._table = numerics.MonotoneTable(self._density, self.length)

    def density(self, t):
        return self._density(t)

    def cumulative(self, t):
        return self._table.cumulative(t) / self._table.total

    def inverse_cumulative(self, v):
        return self._table.inverse(np.multiply(v, self._table.total))

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


class ModelSpace(WeightedInterval):
    """The model segment: sine_power on [0, L], its density guarded.

    model-probe checks the quadrature c against its closed form; the
    profile is the inherited I(v) = h(H^{-1}(v)).
    """

    def __init__(self, K: float, N: float) -> None:
        check_curvature_dimension(K, N)
        self.K = float(K)
        self.N = float(N)
        self._raw, self.L = sine_power(self.K, self.N)
        super().__init__(self._raw, self.L, cd=(self.K, self.N))

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

    isoperimetric_profile = WeightedInterval.profile


_MODELS: dict[tuple[float, float], ModelSpace] = {}


def model_for(K: float, N: float) -> ModelSpace:
    """Shared, lazily built model space for a curvature-dimension pair.

    The kit's only model cache; threads that miss at once may both build,
    but all get the stored object.
    """
    key = (float(K), float(N))
    model = _MODELS.get(key)
    if model is None:
        model = _MODELS.setdefault(key, ModelSpace(*key))
    return model

