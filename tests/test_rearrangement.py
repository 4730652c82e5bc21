"""Rearrangement machinery: exactness on atomic cells and grid tolerance
on sampled cells, checked against the definitions of the distribution
function and of the Hardy-Littlewood inequality."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talenti_kit.errors import InvalidParameter, MeasureOutOfRange
from talenti_kit.model_space import ModelSpace
from talenti_kit.rearrangement import (
    SampledFunction,
    StepFunction,
    decreasing_rearrangement,
    lp_norm,
    sample_on_cells,
    schwarz_symmetrize,
)


@pytest.fixture(scope="module")
def ms23():
    return ModelSpace(2.0, 3.0)


def two_cell():
    return SampledFunction(np.array([0.3, 0.7]), np.array([2.0, 1.0]))


def mass_above(u, t):
    """mu(t) = measure of {|u| > t}, from the definition."""
    return float(np.sum(u.measures[np.abs(u.values) > t]))


# strategy: random atomic cell data with ambient mass <= 1
cells = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=n, max_size=n),
        st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=n, max_size=n),
    )
).map(lambda mv: SampledFunction(
    np.array(mv[0]) / (np.sum(mv[0]) * 1.0001), np.array(mv[1])))


class TestTwoCellAnchor:
    def test_rearrangement_steps(self):
        sharp = decreasing_rearrangement(two_cell())
        assert np.array_equal(sharp.breakpoints, [0.3, 1.0])
        assert np.array_equal(sharp.levels, [2.0, 1.0, 0.0])
        assert sharp(0.0) == 2.0
        assert sharp(0.3) == 2.0  # left-continuous at the jump
        assert sharp(0.31) == 1.0
        assert sharp(1.2) == 0.0

    def test_norms(self):
        u = two_cell()
        assert lp_norm(u, 1.0) == pytest.approx(1.3, abs=1e-15)
        assert lp_norm(u, 2.0) == pytest.approx(math.sqrt(1.9), rel=1e-15)
        assert lp_norm(u, math.inf) == 2.0

    def test_hardy_littlewood_top_cell_equality(self):
        # E = cell 0: the integral of u over E against u^sharp on [0, m(E)]
        u = two_cell()
        assert u.measures[0] * u.values[0] == pytest.approx(0.6, abs=1e-15)
        rhs = decreasing_rearrangement(u).integral(u.measures[0])
        assert rhs == pytest.approx(0.6, abs=1e-15)

    def test_hardy_littlewood_bottom_cell_strict(self):
        u = two_cell()
        assert u.measures[1] * u.values[1] == pytest.approx(0.7, abs=1e-15)
        rhs = decreasing_rearrangement(u).integral(u.measures[1])
        assert rhs == pytest.approx(1.0, abs=1e-15)

    def test_level_lost_in_the_running_sum_is_dropped(self):
        # 0.5 + 1e-20 rounds to 0.5: the smaller level has no width
        sharp = decreasing_rearrangement(
            SampledFunction([0.5, 1e-20], [2.0, 1.0]))
        assert np.array_equal(sharp.breakpoints, [0.5])
        assert np.array_equal(sharp.levels, [2.0, 0.0])


class TestValidation:
    def test_negative_measures_rejected(self):
        with pytest.raises(MeasureOutOfRange):
            SampledFunction(np.array([-0.1, 0.5]), np.array([1.0, 2.0]))

    def test_mass_above_one_rejected(self):
        with pytest.raises(MeasureOutOfRange):
            SampledFunction(np.array([0.7, 0.7]), np.array([1.0, 2.0]))

    def test_step_levels_length(self):
        with pytest.raises(InvalidParameter):
            StepFunction(np.array([1.0]), np.array([1.0]))

    def test_bad_lp_exponent(self):
        with pytest.raises(InvalidParameter):
            lp_norm(two_cell(), 0.5)

    def test_nonfinite_measure_rejected(self):
        with pytest.raises(MeasureOutOfRange):
            SampledFunction(np.array([math.nan, 0.5]), np.array([2.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_values_rejected(self, bad):
        # a NaN cell used to drop out of the rearrangement with its mass
        with pytest.raises(InvalidParameter):
            SampledFunction(np.array([0.5, 0.5]), np.array([bad, 1.0]))

    @pytest.mark.parametrize("bp, lv", [
        ([math.nan], [1.0, 0.0]), ([math.inf], [1.0, 0.0]),
        ([1.0], [math.nan, 0.0]), ([1.0], [1.0, math.inf]),
    ], ids=["nan-breakpoint", "inf-breakpoint", "nan-level", "inf-level"])
    def test_nonfinite_step_rejected(self, bp, lv):
        with pytest.raises(InvalidParameter):
            StepFunction(np.array(bp), np.array(lv))


class TestProperties:
    @given(u=cells)
    @settings(max_examples=80, deadline=None)
    def test_equimeasurable(self, u):
        sharp = decreasing_rearrangement(u)
        if sharp.breakpoints.size == 0:
            assert mass_above(u, 0.0) == 0.0
            return
        # rebuild cells from the rearrangement and compare distributions
        widths = np.diff(np.concatenate([[0.0], sharp.breakpoints]))
        rebuilt = SampledFunction(widths, sharp.levels[:-1])
        av = np.abs(u.values)
        for t in np.concatenate([av, 0.5 * av, [0.0]]):
            assert mass_above(rebuilt, t) == pytest.approx(
                mass_above(u, t), abs=1e-12)
        # nonincreasing and left-continuous, so fixed by its distribution
        assert np.all(np.diff(sharp.levels) < 0.0)
        assert np.array_equal(sharp(sharp.breakpoints), sharp.levels[:-1])
        after = np.nextafter(sharp.breakpoints, math.inf)
        assert np.array_equal(sharp(after), sharp.levels[1:])

    @given(u=cells, p=st.sampled_from([1.0, 2.0, 3.5, math.inf]))
    @settings(max_examples=80, deadline=None)
    def test_norm_preserved(self, u, p):
        sharp = decreasing_rearrangement(u)
        assert lp_norm(u, p) == pytest.approx(lp_norm(sharp, p), rel=1e-11, abs=1e-13)

    @given(u=cells, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_hardy_littlewood_inequality(self, u, data):
        n = u.values.size
        subset = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                    unique=True, min_size=0, max_size=n))
        if not subset:
            return
        idx = np.array(subset)
        lhs = float(np.sum(u.measures[idx] * u.values[idx]))
        sharp = decreasing_rearrangement(u)
        rhs = sharp.integral(float(np.sum(u.measures[idx])))
        assert lhs <= rhs + 1e-12

    @given(u=cells)
    @settings(max_examples=60, deadline=None)
    def test_hl_equality_on_top_cells(self, u):
        # nonnegative data, E = cells holding the largest values
        v = np.abs(u.values)
        w = SampledFunction(u.measures, v)
        order = np.argsort(-v)
        top = order[: max(1, v.size // 2)]
        lhs = float(np.sum(w.measures[top] * w.values[top]))
        sharp = decreasing_rearrangement(w)
        rhs = sharp.integral(float(np.sum(w.measures[top])))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    @given(u=cells)
    @settings(max_examples=40, deadline=None)
    def test_monotone_compose_exact_for_atomic(self, u):
        # (phi(|u|))^sharp = phi(u^sharp) for strictly increasing phi
        phi = lambda x: np.arctan(x) + 0.5 * x
        base = decreasing_rearrangement(u)
        composed = decreasing_rearrangement(
            SampledFunction(u.measures, phi(np.abs(u.values))))
        assert np.array_equal(composed.breakpoints, base.breakpoints)
        assert np.array_equal(composed.levels, phi(base.levels))


class TestSymmetrize:
    def test_norm_equality_three_ways(self, ms23):
        u = two_cell()
        star = schwarz_symmetrize(u, ms23)
        sharp = decreasing_rearrangement(u)
        for p in [1.0, 2.0, 3.0]:
            a = lp_norm(u, p)
            b = lp_norm(sharp, p)
            c = lp_norm(star, p)
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(c, rel=1e-9)
        assert lp_norm(star, math.inf) == lp_norm(u, math.inf)

    def test_level_set_masses_match(self, ms23):
        u = two_cell()
        star = schwarz_symmetrize(u, ms23)
        for t in [0.0, 0.5, 1.0, 1.5]:
            # {u* > t} is the ball [0, x_t); recover its mass from the radius
            mu = mass_above(u, t)
            radius = ms23.inverse_cumulative(min(mu, 1.0))
            assert ms23.cumulative(radius) == pytest.approx(mu, abs=1e-11)
            inside = star(radius * 0.999) if radius > 0 else math.inf
            assert inside > t or radius == 0.0

    def test_step_data_reproduced_exactly_off_jumps(self, ms23):
        # nonincreasing two-level profile on the model segment itself
        x1 = 1.1
        m1 = ms23.cumulative(x1)
        psi = SampledFunction(np.array([m1, 1.0 - m1]), np.array([3.0, 1.0]))
        star = schwarz_symmetrize(psi, ms23)
        jump = star.jump_radii[0]
        assert jump == pytest.approx(x1, abs=1e-9)
        for x in [0.2, 0.9, x1 - 1e-6, x1 + 1e-6, 2.5]:
            expect = 3.0 if x < x1 else 1.0
            assert star(x) == expect

    def test_sampled_route_within_grid_tolerance(self, ms23):
        # smooth nonincreasing profile: symmetrization must reproduce it
        psi = lambda t: np.cos(t / 2.0) ** 2 + 0.25
        u = sample_on_cells(psi, ms23.cumulative, ms23.L, n_cells=2048)
        star = schwarz_symmetrize(u, ms23)
        xs = np.linspace(0.05, ms23.L - 0.05, 101)
        rel = np.abs(star(xs) - psi(xs)) / np.abs(psi(xs))
        assert float(np.max(rel)) <= 1e-3

    def test_monotone_grid_rearrangement_matches_composition(self, ms23):
        # decreasing data: u_sharp(s) should be psi(H^{-1}(s)) up to grid error
        psi = lambda t: np.exp(-t)
        u = sample_on_cells(psi, ms23.cumulative, ms23.L, n_cells=4096)
        sharp = decreasing_rearrangement(u)
        svals = np.linspace(0.01, 0.99, 53)
        expect = psi(ms23.inverse_cumulative(svals))
        got = sharp(svals)
        assert float(np.max(np.abs(got - expect) / expect)) <= 1e-3
