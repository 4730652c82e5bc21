"""Symmetrization comparison pipeline on model and shifted-cap spaces.

Frozen decimals come from a 30-digit mpmath replay of the closed-form
radial solutions; the K=2, N=3 model has H(t) = (t - sin t cos t)/pi.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talenti_kit import numerics, talenti_check
from talenti_kit.errors import (
    DegenerateLevel,
    InvalidMass,
    InvalidParameter,
    InvalidShift,
)
from talenti_kit.radial_poisson import WeightedInterval, solve_explicit
from talenti_kit.talenti_check import (
    ProblemInstance,
    levy_gromov_radial,
    make_shifted_cap,
    model_for,
    run_comparison,
)

ONES = lambda t: np.ones_like(np.asarray(t, dtype=float))


@pytest.fixture(scope="module")
def model_interval():
    return model_for(2.0, 3.0)


@pytest.fixture(scope="module")
def cap():
    return make_shifted_cap(2.0, 3.0, 0.3, 0.4)


class TestShiftedCap:
    def test_frozen_normalization(self, cap):
        # c_a = integral of sin^2(t + 0.3) over [0, pi - 0.3]
        c_a = 1.56195694514365546
        for t in [0.0, 0.5, 1.2, 2.0]:
            expect = math.sin(t + 0.3) ** 2 / c_a
            assert cap.density(t) == pytest.approx(expect, rel=1e-12)
        assert cap.total == pytest.approx(1.0, abs=1e-9)

    def test_frozen_domain_radius(self, cap):
        assert cap.inverse_cumulative(0.4) == pytest.approx(
            1.11783289012193243, abs=1e-10)

    def test_zero_shift_matches_model(self, model_interval):
        # one sine_power density: the same bits on the array and float paths
        flat = make_shifted_cap(2.0, 3.0, 0.0)
        ts = np.linspace(0.0, flat.length, 257)
        assert np.array_equal(flat.density(ts), model_interval.density(ts))
        for t in ts:
            assert flat.density(float(t)) == model_interval.density(float(t))
        assert np.max(np.abs(flat.cumulative(ts) -
                             model_interval.cumulative(ts))) <= 1e-9

    def test_curvature_criterion(self, cap):
        assert cap.cd_violation() <= 1e-8
        assert cap.cd == (2.0, 3.0)

    def test_shift_domain_rejected(self):
        with pytest.raises(InvalidShift):
            make_shifted_cap(2.0, 3.0, -0.1)
        with pytest.raises(InvalidShift):
            make_shifted_cap(2.0, 3.0, math.pi / 2.0)

    @pytest.mark.parametrize("K, N", [(-1.0, 3.0), (0.0, 3.0), (2.0, 1.0),
                                      (2.0, 0.5), (math.nan, 3.0),
                                      (2.0, math.inf), (math.inf, 3.0)])
    def test_curvature_dimension_rejected(self, K, N):
        with pytest.raises(InvalidParameter):
            make_shifted_cap(K, N, 0.1)

    def test_bad_mass_rejected(self):
        with pytest.raises(InvalidMass):
            make_shifted_cap(2.0, 3.0, 0.3, v=1.2)


class TestInstanceValidation:
    def test_mass_range(self, model_interval):
        for v in [-0.1, 0.0, 1.0, 1.2]:
            with pytest.raises(InvalidMass):
                ProblemInstance(model_interval, 2.0, ONES, v)

    def test_exponent(self, model_interval):
        with pytest.raises(InvalidParameter):
            ProblemInstance(model_interval, 1.0, ONES, 0.5)

    def test_untagged_space_rejected(self):
        bare = WeightedInterval(lambda t: np.exp(-np.asarray(t, dtype=float)),
                                3.0)
        with pytest.raises(InvalidParameter):
            ProblemInstance(bare, 2.0, ONES, 0.5)


class TestModelEquality:
    def test_sharpness_and_gradients(self, model_interval):
        inst = ProblemInstance(model_interval, 2.0, ONES, 0.5, label="model")
        rep = run_comparison(inst)
        assert rep.pointwise_violation <= 1e-10
        assert rep.sharpness_gap <= 1e-6
        assert rep.levy_gromov_min_ratio >= 1.0 - 1e-8
        for lhs, rhs in rep.gradient_gaps.values():
            assert lhs == pytest.approx(rhs, rel=1e-9)
        # r = 2 norm matches the frozen closed-form value
        assert rep.gradient_gaps[2.0][1] == pytest.approx(0.125, rel=1e-10)

    def test_two_level_source_stays_sharp(self, model_interval):
        # nonincreasing jump datum: rearrangement is the identity, so the
        # comparison still collapses to equality
        split = 0.45
        f = lambda t: np.where(np.asarray(t, dtype=float) < split, 1.0, 0.35)
        inst = ProblemInstance(model_interval, 2.0, f, 0.5, label="model",
                               f_knots=(split,))
        rep = run_comparison(inst)
        assert rep.pointwise_violation <= 1e-10
        assert rep.sharpness_gap <= 1e-6


class TestShiftedCapComparison:
    def test_frozen_origin_gap(self, cap):
        inst = ProblemInstance(cap, 2.0, ONES, 0.4, label="shifted-cap")
        rep = run_comparison(inst)
        assert rep.pointwise_violation <= 1e-8
        # w(0) - u*(0) from the frozen solutions of both problems
        assert rep.origin_gap == pytest.approx(
            0.387194632294483343 - 0.348404624505566404, rel=1e-7)
        assert rep.origin_gap > 0.01
        assert math.isnan(rep.sharpness_gap)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_gradient_domination(self, cap, p):
        inst = ProblemInstance(cap, p, ONES, 0.4, label="shifted-cap")
        rep = run_comparison(inst)
        assert rep.pointwise_violation <= 1e-8
        assert all(lhs <= rhs + 1e-8
                   for lhs, rhs in rep.gradient_gaps.values())
        lhs, rhs = rep.gradient_gaps[p]
        assert lhs <= rhs + 1e-8

    def test_nonmonotone_source(self, cap):
        # increasing two-level source exercises the sampled rearrangement
        f = lambda t: np.where(np.asarray(t, dtype=float) < 0.5, 0.35, 1.0)
        inst = ProblemInstance(cap, 2.0, f, 0.4, label="shifted-cap")
        rep = run_comparison(inst)
        assert rep.pointwise_violation <= 1e-5
        assert all(lhs <= rhs + 1e-5
                   for lhs, rhs in rep.gradient_gaps.values())

    def test_decreasing_smooth_source(self, cap):
        f = lambda t: np.maximum(np.cos(np.asarray(t, dtype=float)), 0.0)
        inst = ProblemInstance(cap, 2.0, f, 0.4, label="shifted-cap")
        rep = run_comparison(inst)
        assert rep.pointwise_violation <= 1e-8
        assert all(lhs <= rhs + 1e-8
                   for lhs, rhs in rep.gradient_gaps.values())


class TestIncreasingSmoothSource:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_model_comparison_with_source_t(self, model_interval):
        # f(t) = t: the innermost sampled cell is lost in the running sum
        # of the rearrangement, and jumps pinned on the model side sit
        # within an ulp of table nodes
        f = lambda t: np.asarray(t, dtype=float).copy()
        rep = run_comparison(ProblemInstance(model_interval, 2.0, f, 0.5))
        assert rep.pointwise_violation <= 1e-8
        assert rep.levy_gromov_min_ratio >= 1.0 - 1e-8
        assert all(lhs <= rhs + 1e-8
                   for lhs, rhs in rep.gradient_gaps.values())


class TestTableResolution:
    def test_origin_gap_settled_at_64_intervals(self, monkeypatch):
        # an increasing two-level source goes through the sampled
        # rearrangement; its jumps are pinned on the model side, so four
        # times the base resolution moves nothing beyond rounding
        split = 0.326788

        def run():
            cap = make_shifted_cap(2.0, 3.0, 0.293249, 0.317594)
            f = lambda t: np.where(np.asarray(t, dtype=float) < split,
                                   0.599928, 1.76286)
            inst = ProblemInstance(cap, 2.0, f, 0.317594, label="cap",
                                   f_knots=(split,))
            return run_comparison(inst).origin_gap

        coarse = run()
        monkeypatch.setattr(numerics, "_TABLE_CELLS", 256)
        monkeypatch.setattr(talenti_check, "_MODELS", {})
        fine = run()
        assert abs(fine - coarse) <= 1e-13
        assert coarse == pytest.approx(0.185487259525593, abs=1e-13)


class TestLevyGromov:
    def test_model_ratio_is_one(self, model_interval):
        inst = ProblemInstance(model_interval, 2.0, ONES, 0.5, label="model")
        u = solve_explicit(inst.problem())
        sup = float(u.w_at(0.0))
        ratio = levy_gromov_radial(inst, u, np.linspace(0.1, 0.9, 9) * sup)
        assert ratio == pytest.approx(1.0, abs=1e-10)

    def test_cap_ratio_at_least_one(self, cap):
        inst = ProblemInstance(cap, 2.0, ONES, 0.4, label="shifted-cap")
        u = solve_explicit(inst.problem())
        sup = float(u.w_at(0.0))
        ratio = levy_gromov_radial(inst, u, np.linspace(0.05, 0.95, 19) * sup)
        assert ratio >= 1.0 - 1e-8

    def test_high_levels_skipped(self, model_interval):
        inst = ProblemInstance(model_interval, 2.0, ONES, 0.5, label="model")
        u = solve_explicit(inst.problem())
        sup = float(u.w_at(0.0))
        mixed = levy_gromov_radial(inst, u, [0.5 * sup, 2.0 * sup])
        only = levy_gromov_radial(inst, u, [0.5 * sup])
        assert mixed == pytest.approx(only, rel=1e-12)

    def test_all_levels_degenerate(self, model_interval):
        inst = ProblemInstance(model_interval, 2.0, ONES, 0.5, label="model")
        u = solve_explicit(inst.problem())
        with pytest.raises(DegenerateLevel):
            levy_gromov_radial(inst, u, [10.0, 20.0])

    def test_negative_level_rejected(self, model_interval):
        inst = ProblemInstance(model_interval, 2.0, ONES, 0.5, label="model")
        u = solve_explicit(inst.problem())
        with pytest.raises(InvalidParameter):
            levy_gromov_radial(inst, u, [-0.5])


DECREASING = lambda t: np.where(np.asarray(t, dtype=float) < 0.45, 1.0, 0.35)
INCREASING = lambda t: np.where(np.asarray(t, dtype=float) < 0.5, 0.35, 1.0)


class TestChainClosedForm:
    """The paper's per-level chain -mu' F(mu)^{1/(p-1)} / I(mu)^{p/(p-1)}
    is (h/I)^{p/(p-1)} (F/M)^{1/(p-1)} on a weighted interval, h the
    density: the Levy-Gromov ratio times the Hardy-Littlewood ratio."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("where, f, knots", [
        ("model", ONES, ()), ("model", DECREASING, (0.45,)),
        ("cap", ONES, ()), ("cap", DECREASING, (0.45,)),
        ("cap", INCREASING, (0.5,)),
    ], ids=["model-const", "model-dec", "cap-const", "cap-dec", "cap-inc"])
    def test_chain_is_product_of_two_ratios(self, model_interval, cap,
                                            where, f, knots, p):
        space, v = (model_interval, 0.5) if where == "model" else (cap, 0.4)
        inst = ProblemInstance(space, p, f, v, label=where, f_knots=knots)
        u = solve_explicit(inst.problem())
        top = 0.99 * float(u.w_at(0.0))
        levels = np.linspace(top / 256, top, 256)
        rho = talenti_check._radius_of_level(u, levels)
        mu = np.asarray(space.cumulative(rho), dtype=float)
        lg = np.asarray(space.density(rho), dtype=float) / \
            np.asarray(inst.model.isoperimetric_profile(mu), dtype=float)
        _, step, _ = talenti_check._rearranged_source(inst)
        F = np.asarray(talenti_check._source_cumulative(inst, u, step)(mu),
                       dtype=float)
        hl = F / np.asarray(u.mass_at(rho), dtype=float)
        chain = lg ** (p / (p - 1.0)) * hl ** (1.0 / (p - 1.0))
        if where == "model":
            assert np.max(np.abs(chain - 1.0)) <= 1e-12
        else:
            assert np.min(chain) >= 1.0 - 1e-12
        assert np.min(lg) == levy_gromov_radial(inst, u, levels)


class TestPropertySweep:
    @given(shift=st.floats(min_value=0.0, max_value=0.6),
           v=st.floats(min_value=0.2, max_value=0.7),
           p=st.floats(min_value=1.3, max_value=3.5))
    @settings(max_examples=10, deadline=None)
    def test_comparison_holds(self, shift, v, p):
        space = make_shifted_cap(2.0, 3.0, shift, v)
        inst = ProblemInstance(space, p, ONES, v, label="shifted-cap")
        rep = run_comparison(inst, n_check=256)
        assert rep.pointwise_violation <= 1e-8 + rep.grid_bound
        assert all(lhs <= rhs + 1e-8
                   for lhs, rhs in rep.gradient_gaps.values())
        assert rep.levy_gromov_min_ratio >= 1.0 - 1e-8
