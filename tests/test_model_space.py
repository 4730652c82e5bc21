"""Model segment geometry.

The (K=2, N=3) segment has closed forms: L = pi, c = pi/2,
h(t) = 2 sin(t)^2 / pi and H(t) = (t - sin t cos t)/pi.  Frozen decimals
below come from 30-digit mpmath evaluations of those forms.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincinv

from talenti_kit.errors import InvalidParameter, OutOfDomain
from talenti_kit.model_space import ModelSpace


@pytest.fixture(scope="module")
def ms23():
    return ModelSpace(2.0, 3.0)


class TestClosedFormAnchors:
    def test_segment_length(self, ms23):
        assert ms23.L == pytest.approx(math.pi, rel=1e-14)

    def test_normalizing_constant(self, ms23):
        assert ms23.c == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_density_values(self, ms23):
        assert ms23.density(math.pi / 2.0) == pytest.approx(2.0 / math.pi, rel=1e-10)
        assert ms23.density(math.pi / 4.0) == pytest.approx(1.0 / math.pi, rel=1e-10)
        assert ms23.density(0.0) == 0.0
        assert ms23.density(ms23.L) == 0.0

    def test_cumulative_values(self, ms23):
        assert ms23.cumulative(math.pi / 4.0) == pytest.approx(
            0.0908450569081047, abs=1e-12)
        assert abs(ms23.cumulative(ms23.L / 2.0) - 0.5) <= 1e-10
        assert ms23.cumulative(0.0) == 0.0
        assert ms23.cumulative(ms23.L) == 1.0

    def test_inverse_cumulative_midpoint(self, ms23):
        assert ms23.inverse_cumulative(0.5) == pytest.approx(math.pi / 2.0, abs=1e-11)

    def test_isoperimetric_profile_values(self, ms23):
        # I(v) = h(H^{-1}(v)) via mpmath bisection to 30 digits
        assert ms23.isoperimetric_profile(0.1) == pytest.approx(
            0.336112264527109387, rel=1e-9)
        assert ms23.isoperimetric_profile(0.25) == pytest.approx(
            0.532727254525132060, rel=1e-9)
        assert ms23.isoperimetric_profile(0.4) == pytest.approx(
            0.620780222446247150, rel=1e-9)

    def test_constants(self, ms23):
        cst = ms23.constants()
        assert cst.gamma1 == pytest.approx(2.0 / math.pi, rel=1e-10)
        assert cst.gamma2 == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-10)


class TestInvariants:
    def test_normalization(self, ms23):
        from talenti_kit.numerics import integrate
        total = integrate(ms23.density, 0.0, ms23.L)
        assert abs(total - 1.0) <= 1e-9

    @given(v=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, ms23, v):
        t = ms23.inverse_cumulative(v)
        assert abs(ms23.cumulative(t) - v) <= 1e-9

    @given(t=st.floats(min_value=1e-6, max_value=math.pi - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_small_radius_bounds(self, ms23, t):
        cst = ms23.constants()
        assert ms23.density(t) <= cst.gamma1 * t ** 2.0 * (1.0 + 1e-12)
        assert ms23.cumulative(t) <= cst.gamma2 * t ** 3.0 * (1.0 + 1e-12)

    @given(v=st.floats(min_value=1e-8, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_inverse_lower_bound(self, ms23, v):
        cst = ms23.constants()
        lower = (v / cst.gamma2) ** (1.0 / 3.0)
        assert ms23.inverse_cumulative(v) >= lower * (1.0 - 1e-10)

    def test_density_limit_ratio(self, ms23):
        cst = ms23.constants()
        t = 1e-6
        assert ms23.density(t) / t ** 2.0 == pytest.approx(cst.gamma1, rel=1e-6)
        assert ms23.cumulative(t) / t ** 3.0 == pytest.approx(cst.gamma2, rel=1e-4)

    @given(v=st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=40, deadline=None)
    def test_profile_symmetry(self, ms23, v):
        left = ms23.isoperimetric_profile(v)
        right = ms23.isoperimetric_profile(1.0 - v)
        assert abs(left - right) <= 1e-9

    def test_cumulative_symmetry_at_half(self, ms23):
        assert abs(ms23.cumulative(ms23.L / 2.0) - 0.5) <= 1e-10


class TestFractionalDimension:
    def test_non_integer_dimension_normalizes(self):
        ms = ModelSpace(1.0, 2.5)
        assert ms.L == pytest.approx(math.pi * math.sqrt(1.5), rel=1e-14)
        from talenti_kit.numerics import integrate
        assert abs(integrate(ms.density, 0.0, ms.L) - 1.0) <= 1e-9
        assert abs(ms.cumulative(ms.L / 2.0) - 0.5) <= 1e-10

    def test_round_trip_fractional(self):
        ms = ModelSpace(0.7, 4.2)
        for v in [0.01, 0.3, 0.77, 0.99]:
            assert abs(ms.cumulative(ms.inverse_cumulative(v)) - v) <= 1e-9


def _half_mass(N, x):
    """Model mass of [0, x / scale] for x <= pi/2: sin**(N-1) integrates
    to half the regularized incomplete beta at sin(x)**2."""
    return 0.5 * betainc(0.5 * N, 0.5, np.sin(x) ** 2)


class TestBetaOracles:
    """H and its inverse against scipy's incomplete beta function."""

    @pytest.mark.parametrize("N", [1.1, 1.5])
    def test_cumulative_relative_at_small_masses(self, N):
        # masses from about 1e-27 up to 1e-6, where the density vanishes
        # like t**(N-1): the end grading and the first cell's power law
        # keep the error relative
        ms = ModelSpace(2.0, N)
        scale = math.sqrt(2.0 / (N - 1.0))
        ts = ms.L * np.logspace(-16.0, -2.0, 400)
        exact = _half_mass(N, scale * ts)
        keep = exact <= 1e-6
        rel = np.abs(ms.cumulative(ts[keep]) - exact[keep]) / exact[keep]
        assert keep.sum() > 100
        assert np.max(rel) <= 1e-13

    def test_inverse_at_n_1_1(self):
        # the density vanishes like t**0.1 at both ends
        K, N = 1.0, 1.1
        ms = ModelSpace(K, N)
        scale = math.sqrt(K / (N - 1.0))
        vs = np.concatenate([np.logspace(-12.0, -2.0, 41),
                             np.linspace(0.01, 0.99, 99),
                             1.0 - np.logspace(-12.0, -2.0, 41)])
        low = np.minimum(vs, 1.0 - vs)
        x = np.arcsin(np.sqrt(betaincinv(0.5 * N, 0.5, 2.0 * low))) / scale
        exact = np.where(vs <= 0.5, x, ms.L - x)
        assert np.max(np.abs(ms.inverse_cumulative(vs) - exact)) <= 1e-13 * ms.L

    @pytest.mark.parametrize("v", [1e-14, 1e-10])
    @pytest.mark.parametrize("N", [1.1, 1.5])
    def test_inverse_round_trip_relative_at_tiny_masses(self, N, v):
        # the radius is near 1e-13 at N = 1.1, v = 1e-14: a Newton stop
        # on an absolute step of 4e-16 * L kept a 2.4e-8 relative error
        ms = ModelSpace(1.0, N)
        assert abs(ms.cumulative(ms.inverse_cumulative(v)) / v - 1.0) <= 1e-12


class TestValidation:
    def test_rejects_nonpositive_curvature(self):
        with pytest.raises(InvalidParameter):
            ModelSpace(0.0, 3.0)
        with pytest.raises(InvalidParameter):
            ModelSpace(-1.0, 3.0)

    def test_rejects_small_dimension(self):
        with pytest.raises(InvalidParameter):
            ModelSpace(2.0, 1.0)

    def test_density_domain_guard(self, ms23):
        with pytest.raises(OutOfDomain):
            ms23.density(-0.5)
        with pytest.raises(OutOfDomain):
            ms23.density(ms23.L + 0.5)

    def test_inverse_domain_guard(self, ms23):
        with pytest.raises(OutOfDomain):
            ms23.inverse_cumulative(1.5)


class TestOneModelObject:
    def test_model_is_a_weighted_interval(self):
        from talenti_kit.model_space import WeightedInterval
        from talenti_kit.talenti_check import model_for
        model = model_for(2, 3)
        assert isinstance(model, WeightedInterval)
        assert model.cd == (2.0, 3.0)
        assert model.total == 1.0
        assert model.cumulative(model.L) == 1.0
        assert model.length == model.L

    def test_profile_is_the_isoperimetric_profile(self, ms23):
        vs = np.linspace(0.05, 0.95, 7)
        assert np.array_equal(ms23.profile(vs), ms23.isoperimetric_profile(vs))


class TestUnitMass:
    """Every WeightedInterval carries unit mass, whatever it is given."""

    def test_model_cap_and_user_density(self):
        from talenti_kit.model_space import WeightedInterval
        from talenti_kit.talenti_check import make_shifted_cap, model_for
        cap = make_shifted_cap(2.0, 3.0, 0.3)
        user = WeightedInterval(lambda t: 3.0 * cap.density(t), cap.length,
                                cd=cap.cd)
        for space in (model_for(2, 3), cap, user):
            assert space.total == 1.0
            assert space.cumulative(space.length) == 1.0
            assert space.inverse_cumulative(1.0) == space.length
        # the scaled density builds the same space
        ts = np.linspace(0.0, cap.length, 257)[1:-1]
        vs = np.linspace(0.0, 1.0, 257)[1:-1]
        for mine, theirs in ((user.density, cap.density),
                             (user.cumulative, cap.cumulative)):
            assert np.max(np.abs(mine(ts) / theirs(ts) - 1.0)) <= 1e-15
        back = cap.cumulative(user.inverse_cumulative(vs))
        assert np.max(np.abs(back / vs - 1.0)) <= 1e-15

    @pytest.mark.parametrize("level", [0.0, -1.0])
    def test_density_without_positive_mass_rejected(self, level):
        from talenti_kit.model_space import WeightedInterval
        with pytest.raises(InvalidParameter):
            WeightedInterval(lambda t: np.full_like(t, level, dtype=float),
                             1.0)


def _ulps(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


class TestScalarDensity:
    """A float argument takes the math.sin branch; it must match arrays."""

    @pytest.mark.parametrize("K,N", [(2.0, 3.0), (3.0, 4.0)])
    def test_model_scalar_matches_array(self, K, N):
        model = ModelSpace(K, N)
        ts = np.linspace(0.0, model.L, 1000)
        scalar = [model.density(float(t)) for t in ts]
        assert all(isinstance(x, float) for x in scalar)
        assert np.max(_ulps(scalar, model.density(ts))) <= 4.0
        assert scalar[0] == 0.0 and scalar[-1] == 0.0

    @pytest.mark.parametrize("K,N,a", [(2.0, 3.0, 0.3), (3.0, 4.0, 0.2)])
    def test_cap_scalar_matches_array(self, K, N, a):
        from talenti_kit.talenti_check import make_shifted_cap
        cap = make_shifted_cap(K, N, a)
        ts = np.linspace(0.0, cap.length, 1000)
        scalar = [cap.density(float(t)) for t in ts]
        assert np.max(_ulps(scalar, cap.density(ts))) <= 4.0
        assert scalar[-1] == 0.0

    def test_scalar_domain_guard(self, ms23):
        slack = 1e-12 * ms23.L
        for t in (-10.0 * slack, ms23.L + 10.0 * slack, np.float64(-0.5)):
            with pytest.raises(OutOfDomain):
                ms23.density(t)
        # inside the slack the endpoints read as zero, as for arrays
        assert ms23.density(-0.5 * slack) == 0.0
        assert ms23.density(ms23.L + 0.5 * slack) == 0.0
