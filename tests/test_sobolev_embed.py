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

from talenti_kit import cli, numerics, sobolev_embed
from talenti_kit.errors import InvalidParameter, NonConvergence
from talenti_kit.radial_poisson import (
    RadialProblem,
    WeightedInterval,
    solve_explicit,
)
from talenti_kit.sobolev_embed import (
    c1_constant,
    c2_constant,
    check_embedding,
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
            assert c1_constant(2.0, 3.0, 0.5, 2.0, crit + ds) == math.inf
        for ds in [1e-3, 5e-3, 1.0]:
            val = c1_constant(2.0, 3.0, 0.5, 2.0, crit + ds)
            assert math.isfinite(val) and val > 0.0

    def test_flip_nonrepresentable_ratio(self):
        # N/p = 1.2 rounds; equality up to roundoff still reads divergent
        crit = 3.0 / 2.5
        assert c1_constant(2.0, 3.0, 0.5, 2.5, crit) == math.inf
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
        assert c2_constant(2.0, 3.0, 0.5, 2.0, 1.5, 0.5) == math.inf

    def test_divergent_outside_window(self):
        # t (1/s - p/N)/(p-1) = 3 * (2 - 2/3) = 4 >= 1
        assert c2_constant(2.0, 3.0, 0.5, 2.0, 0.5, 3.0) == math.inf

    def test_boundary_is_divergent(self):
        # pick s so the window quantity equals 1 exactly
        t = 2.0
        inv_s = 1.0 / t + 2.0 / 3.0
        assert c2_constant(2.0, 3.0, 0.5, 2.0, 1.0 / inv_s, t) == math.inf

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


def _ladder_row(K, N, v, p, s, t=None):
    # one row of the sobolev scenario's table, built as cli._run_sobolev
    # builds it
    return (s, t, c1_constant(K, N, v, p, s),
            None if t is None else c2_constant(K, N, v, p, s, t))


class TestTables:
    def test_divergent_row_displays_inf(self):
        s, t, c1, c2 = _ladder_row(2.0, 3.0, 0.5, 2.0, 1.5, t=0.5)
        assert is_divergent(c1) and is_divergent(c2)
        assert cli._fmt(c1) == cli._fmt(c2) == "inf"

    def test_frozen_c2(self):
        s, t, c1, c2 = _ladder_row(2.0, 3.0, 0.5, 2.0, 1.5, t=2.0)
        assert c2 == pytest.approx(0.52099904638863054, rel=1e-10)
        assert is_divergent(c1)


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


def _reference_norm(prob, g, s):
    """(int_0^r1 |g|^s dm)^{1/s} by adaptive quadrature at rel 1e-13,
    one piece between the source's knots."""
    dens = prob.space.density
    tol = numerics.Tolerance(rel=1e-13, abs=1e-300)
    cuts = [0.0, *sorted(prob.inner_knots), prob.r1]
    total = sum(numerics.integrate(
        lambda x: np.abs(np.asarray(g(x), dtype=float)) ** s
        * np.asarray(dens(x), dtype=float), lo, hi, tol)
        for lo, hi in zip(cuts[:-1], cuts[1:]))
    return total ** (1.0 / s)


class TestEmbeddingNorms:
    """check_embedding's ||u||_t is a node sum over the solution's slope
    table and its ||f||_s an adaptive quadrature per knot piece; both
    are checked against the adaptive reference.  At v = 0.8 the cospos
    knot pi/2 lies inside (0, r1) on both spaces."""

    SOURCES = ("const 1", "cospos", "twolevel 2 0.5 0.5", "twolevel 0.5 2 0.5")

    @pytest.mark.parametrize("where", ["model", "cap"])
    @pytest.mark.parametrize("v", [0.3, 0.8])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_norms_match_the_reference(self, where, v, p):
        space = model_for(2.0, 3.0) if where == "model" else \
            make_shifted_cap(2.0, 3.0, 0.3)
        r1 = float(space.inverse_cumulative(v))
        for text in self.SOURCES:
            spec = cli._parse_source("f", text)
            prob = RadialProblem(space, p, spec, r1, f_knots=spec.knots)
            sol = solve_explicit(prob)
            for s, t in ((0.9, 1.5), (2.0, 2.0), (5.0, 3.0)):
                lhs = check_embedding(prob, sol, 5.0, t).lhs
                ref = _reference_norm(prob, sol.w_at, t)
                assert lhs == pytest.approx(ref, rel=1e-13, abs=0.0)
                # ||f||_s runs at the default quadrature tolerance; its
                # worst case, cospos at s = 0.9 past pi/2, reads 2.2e-12
                ref = _reference_norm(prob, spec, s)
                assert sobolev_embed._source_norm(prob, s) == pytest.approx(
                    ref, rel=1e-10, abs=0.0)

    def test_lt_norm_makes_no_quadrature(self, monkeypatch):
        # the adaptive calls of a finite-s, finite-t check are the
        # constant's and the source norm's; ||u||_t adds none
        cap = make_shifted_cap(2.0, 3.0, 0.3)
        spec = cli._parse_source("f", "twolevel 2 0.5 0.5")
        prob = RadialProblem(cap, 2.0, spec, float(cap.inverse_cumulative(0.4)),
                             f_knots=spec.knots)
        sol = solve_explicit(prob)
        K, N = cap.cd
        calls = []
        plain = numerics.integrate
        monkeypatch.setattr(numerics, "integrate",
                            lambda *a, **k: calls.append(a) or plain(*a, **k))
        c2_constant(K, N, prob.mass, 2.0, 2.5, 2.0)
        sobolev_embed._source_norm(prob, 2.5)
        alone = len(calls)
        calls.clear()
        check_embedding(prob, sol, 2.5, 2.0)
        assert alone > 0 and len(calls) == alone
