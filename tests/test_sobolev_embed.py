"""Embedding constants and the sup/L^t bounds they certify.

Frozen decimals come from 40-digit tanh-sinh quadrature of the same
integrals written in the radius variable, where xi = H(t) turns
xi^a / I(xi)^b dxi into H(t)^a h(t)^(1-b) dt.  At K=2, N=3, v=1/2,
p=2, s=inf the integrand is (t - sin t cos t)/(2 sin^2 t), whose
antiderivative -(t - sin t cos t) cot(t)/2 + sin^2(t)/2 ... evaluates
to exactly 1/2 on [0, pi/2]; the N=4 cumulative was evaluated in the
cancellation-free form (1 - cos t)^2 (cos t + 2)/4.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talenti_kit.errors import InvalidParameter, NonConvergence
from talenti_kit.radial_poisson import (
    RadialProblem,
    WeightedInterval,
    solve_explicit,
)
from talenti_kit.sobolev_embed import (
    Divergent,
    DivergentType,
    c1_constant,
    c2_constant,
    check_embedding,
    embedding_constants,
    is_divergent,
)
from talenti_kit.talenti_check import make_shifted_cap, model_for

ONES = lambda t: np.ones_like(np.asarray(t, dtype=float))
ZEROS = lambda t: np.zeros_like(np.asarray(t, dtype=float))


@pytest.fixture(scope="module")
def model_interval():
    return model_for(2.0, 3.0)


@pytest.fixture(scope="module")
def model_poisson(model_interval):
    """Solved f = 1, p = 2 problem on the half-mass model domain."""
    space = model_interval
    r_half = space.inverse_cumulative(0.5 * space.total)
    prob = RadialProblem(space=space, p=2.0, f=ONES, r1=r_half)
    return prob, solve_explicit(prob)


class TestDivergentSentinel:
    def test_singleton(self):
        assert DivergentType() is Divergent
        assert is_divergent(Divergent)
        assert not is_divergent(1.0)

    def test_float_and_repr(self):
        assert float(Divergent) == math.inf
        assert repr(Divergent) == "Divergent"


class TestC1Values:
    # (K, N, v, p, s) -> frozen value, admissible relative error
    CASES = [
        ((2.0, 3.0, 0.5, 2.0, math.inf), 0.5, 1e-12),
        ((2.0, 3.0, 0.5, 3.0, 2.0), 1.7390516642645287, 1e-10),
        ((2.0, 3.0, 0.5, 1.5, math.inf), 0.23203132115102564, 1e-12),
        # the (N-1)/N power expansion of the head is coarser at N = 4
        ((3.0, 4.0, 0.3, 2.0, 4.0), 0.5762040913707096, 1e-8),
    ]

    @pytest.mark.parametrize("args,expect,rel", CASES)
    def test_frozen(self, args, expect, rel):
        assert c1_constant(*args) == pytest.approx(expect, rel=rel)

    def test_small_domain_limit(self):
        tiny = c1_constant(2.0, 3.0, 1e-4, 2.0, math.inf)
        assert 0.0 < tiny < 5e-3

    def test_monotone_in_v(self):
        vs = [0.1, 0.25, 0.5, 0.75, 0.9]
        vals = [c1_constant(2.0, 3.0, v, 2.0, math.inf) for v in vs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestC1Regime:
    def test_flip_at_critical_exponent(self):
        # N/p = 1.5; the transition must land inside a 1e-3 band
        crit = 3.0 / 2.0
        for ds in [-5e-3, -1e-3, 0.0]:
            assert c1_constant(2.0, 3.0, 0.5, 2.0, crit + ds) is Divergent
        for ds in [1e-3, 5e-3, 1.0]:
            val = c1_constant(2.0, 3.0, 0.5, 2.0, crit + ds)
            assert math.isfinite(val) and val > 0.0

    def test_flip_nonrepresentable_ratio(self):
        # N/p = 1.2 rounds; equality up to roundoff still reads divergent
        crit = 3.0 / 2.5
        assert c1_constant(2.0, 3.0, 0.5, 2.5, crit) is Divergent
        assert math.isfinite(c1_constant(2.0, 3.0, 0.5, 2.5, crit + 1e-3))

    def test_grows_toward_boundary(self):
        near = c1_constant(2.0, 3.0, 0.5, 2.0, 1.5 + 1e-3)
        far = c1_constant(2.0, 3.0, 0.5, 2.0, 4.0)
        assert near > 100.0 * far

    @given(st.floats(0.05, 0.9), st.floats(0.05, 0.9), st.floats(1.5, 3.0))
    @settings(max_examples=10, deadline=None)
    def test_monotone_in_v_property(self, v1, v2, p):
        lo, hi = sorted((v1, v2))
        assert (c1_constant(2.0, 3.0, lo, p, math.inf)
                <= c1_constant(2.0, 3.0, hi, p, math.inf) + 1e-12)


class TestC2Values:
    def test_frozen_log_case(self):
        # s = N/p exactly: the inner tail grows like log(1/x)
        val = c2_constant(2.0, 3.0, 0.5, 2.0, 1.5, 2.0)
        assert val == pytest.approx(0.52099904638863054, rel=1e-10)

    def test_frozen_power_case(self):
        val = c2_constant(2.0, 3.0, 0.5, 2.0, 1.2, 1.5)
        assert val == pytest.approx(0.55666417041030779, rel=1e-10)

    def test_t_one_is_allowed(self):
        val = c2_constant(2.0, 3.0, 0.5, 2.0, 1.5, 1.0)
        assert math.isfinite(val) and val > 0.0

    def test_supercritical_s_is_finite(self):
        # s above N/p makes the inner tail bounded; any t >= 1 works
        val = c2_constant(2.0, 3.0, 0.5, 2.0, 2.0, 2.0)
        assert math.isfinite(val) and val > 0.0

    def test_small_domain_limit(self):
        val = c2_constant(2.0, 3.0, 1e-4, 2.0, 1.5, 2.0)
        assert 0.0 < val < 5e-3


class TestC2Regime:
    def test_divergent_below_t_one(self):
        assert c2_constant(2.0, 3.0, 0.5, 2.0, 1.5, 0.5) is Divergent

    def test_divergent_outside_window(self):
        # t (1/s - p/N)/(p-1) = 3 * (2 - 2/3) = 4 >= 1
        assert c2_constant(2.0, 3.0, 0.5, 2.0, 0.5, 3.0) is Divergent

    def test_boundary_is_divergent(self):
        # pick s so the window quantity equals 1 exactly
        t = 2.0
        inv_s = 1.0 / t + 2.0 / 3.0
        assert c2_constant(2.0, 3.0, 0.5, 2.0, 1.0 / inv_s, t) is Divergent

    def test_near_boundary_refuses(self):
        # window quantity 0.995: finite but astronomically large
        t = 2.0
        inv_s = 0.995 / t + 2.0 / 3.0
        with pytest.raises(NonConvergence):
            c2_constant(2.0, 3.0, 0.5, 2.0, 1.0 / inv_s, t)


class TestValidation:
    @pytest.mark.parametrize("args", [
        (0.0, 3.0, 0.5, 2.0, 2.0),
        (2.0, 1.0, 0.5, 2.0, 2.0),
        (2.0, 3.0, 0.0, 2.0, 2.0),
        (2.0, 3.0, 1.0, 2.0, 2.0),
        (2.0, 3.0, 0.5, 1.0, 2.0),
        (2.0, 3.0, 0.5, 2.0, 0.0),
        (2.0, 3.0, 0.5, 2.0, -2.0),
    ])
    def test_c1_rejects(self, args):
        with pytest.raises(InvalidParameter):
            c1_constant(*args)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_c2_rejects_bad_t(self, t):
        with pytest.raises(InvalidParameter):
            c2_constant(2.0, 3.0, 0.5, 2.0, 1.5, t)


class TestTables:
    def test_echoes_parameters(self):
        row = embedding_constants(2.0, 3.0, 0.5, 2.0, math.inf)
        assert (row.K, row.N, row.v, row.p) == (2.0, 3.0, 0.5, 2.0)
        assert row.s == math.inf and row.t is None
        assert row.c1 == pytest.approx(0.5, rel=1e-12)
        assert row.c2 is None

    def test_divergent_row_displays_inf(self):
        row = embedding_constants(2.0, 3.0, 0.5, 2.0, 1.5, t=0.5)
        assert is_divergent(row.c1) and is_divergent(row.c2)
        assert float(row.c1) == math.inf

    def test_frozen_c2(self):
        row = embedding_constants(2.0, 3.0, 0.5, 2.0, 1.5, t=2.0)
        assert row.c2 == pytest.approx(0.52099904638863054, rel=1e-10)


class TestCheckEmbedding:
    def test_model_sup_bound_is_sharp(self, model_poisson):
        # f = 1 makes every inequality in the chain an equality
        prob, sol = model_poisson
        chk = check_embedding(prob, sol, math.inf)
        assert chk.lhs == pytest.approx(0.5, rel=1e-9)
        assert chk.rhs == pytest.approx(0.5, rel=1e-9)
        assert chk.slack >= -1e-8
        assert abs(chk.slack) < 1e-10

    def test_model_lt_bound(self, model_poisson):
        prob, sol = model_poisson
        chk = check_embedding(prob, sol, 1.5, t=2.0)
        assert chk.slack > 0.1

    def test_cap_sup_bound(self):
        cap = make_shifted_cap(2.0, 3.0, 0.3)
        r1 = cap.inverse_cumulative(0.4 * cap.total)
        prob = RadialProblem(space=cap, p=3.0, f=ONES, r1=r1)
        sol = solve_explicit(prob)
        for s in [2.0, 4.0, math.inf]:
            chk = check_embedding(prob, sol, s)
            assert chk.slack > 0.0

    def test_zero_source(self, model_interval):
        space = model_interval
        r1 = space.inverse_cumulative(0.5 * space.total)
        prob = RadialProblem(space=space, p=2.0, f=ZEROS, r1=r1)
        sol = solve_explicit(prob)
        chk = check_embedding(prob, sol, math.inf)
        assert (chk.lhs, chk.rhs, chk.slack) == (0.0, 0.0, 0.0)
        v = float(space.cumulative(r1)) / space.total
        assert chk.constant == c1_constant(2.0, 3.0, v, 2.0, math.inf)

    def test_divergent_constant_is_vacuous(self, model_poisson):
        prob, sol = model_poisson
        chk = check_embedding(prob, sol, 1.0)
        assert chk.rhs == math.inf and chk.slack == math.inf

    def test_rejects_untagged_space(self):
        dens = lambda t: np.exp(-np.asarray(t, dtype=float))
        plain = WeightedInterval(dens, 1.0)
        prob = RadialProblem(space=plain, p=2.0, f=ONES, r1=0.5)
        sol = solve_explicit(prob)
        with pytest.raises(InvalidParameter):
            check_embedding(prob, sol, math.inf)

    def test_doubled_density_matches_the_model(self, model_interval):
        # a WeightedInterval normalizes what it is given: twice the model
        # density builds the model again
        double = WeightedInterval(lambda t: 2.0 * model_interval.density(t),
                                  model_interval.L, cd=(2.0, 3.0))
        checks = []
        for space in (model_interval, double):
            prob = RadialProblem(space=space, p=2.0, f=ONES, r1=1.0)
            checks.append(check_embedding(prob, solve_explicit(prob), 3.0))
        model, twice = checks
        assert twice.constant == pytest.approx(model.constant, rel=1e-13)
        assert twice.lhs == pytest.approx(model.lhs, rel=1e-13)
        assert twice.rhs == pytest.approx(model.rhs, rel=1e-13)

    def test_rejects_bad_t(self, model_poisson):
        prob, sol = model_poisson
        with pytest.raises(InvalidParameter):
            check_embedding(prob, sol, 1.5, t=math.inf)

    @given(st.floats(0.0, 0.5), st.floats(0.25, 0.6), st.floats(1.4, 3.2))
    @settings(max_examples=5, deadline=None)
    def test_sup_bound_across_instances(self, shift, v, p):
        cap = make_shifted_cap(2.0, 3.0, shift)
        r1 = cap.inverse_cumulative(v * cap.total)
        prob = RadialProblem(space=cap, p=p, f=ONES, r1=r1)
        sol = solve_explicit(prob)
        for s in [2.5, math.inf]:
            assert check_embedding(prob, sol, s).slack >= -1e-8
