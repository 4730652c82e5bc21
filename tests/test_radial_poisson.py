"""Radial p-Poisson solver against mpmath-frozen closed-form values.

For the (K=2, N=3) model with f = 1 and r1 = pi/2 the slope is
w'(rho) = -((rho - sin rho cos rho) / (2 sin^2 rho))^{1/(p-1)} and the
frozen decimals below are 30-digit quadratures of its integral.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talenti_kit import cli, numerics
from talenti_kit.errors import (
    IntegrabilityFailure,
    InvalidParameter,
    NegativeData,
)
from talenti_kit.model_space import ModelSpace
from talenti_kit.numerics import Tolerance, cosine_grid, integrate
from talenti_kit.radial_poisson import (
    RadialProblem,
    WeightedInterval,
    gradient_norm,
    gradient_norm_mass,
    power_signed,
    solve_explicit,
    solve_mass_form,
    weak_residual,
)
from talenti_kit.rearrangement import StepFunction
from talenti_kit.talenti_check import make_shifted_cap


@pytest.fixture(scope="module")
def model23():
    return ModelSpace(2.0, 3.0)


@pytest.fixture(scope="module")
def half_ball_p2(model23):
    prob = RadialProblem(model23, 2.0, lambda t: np.ones_like(np.asarray(t)),
                         math.pi / 2.0)
    return prob, solve_explicit(prob)


ONES = lambda t: np.ones_like(np.asarray(t, dtype=float))


class TestFrozenValues:
    def test_p2_solution_values(self, half_ball_p2):
        _, sol = half_ball_p2
        assert sol.w_at(0.0) == pytest.approx(0.5, abs=1e-10)
        assert sol.w_at(math.pi / 8.0) == pytest.approx(0.474029724484259968, abs=1e-10)
        assert sol.w_at(math.pi / 4.0) == pytest.approx(math.pi / 8.0, abs=1e-10)
        assert sol.w_at(1.0) == pytest.approx(0.321046307967165352, abs=1e-10)
        assert sol.w_at(3.0 * math.pi / 8.0) == pytest.approx(
            0.243991928356607439, abs=1e-10)
        assert sol.w_at(sol.r1) == pytest.approx(0.0, abs=1e-13)

    def test_p2_slope_closed_form(self, half_ball_p2):
        _, sol = half_ball_p2
        for rho in [0.3, math.pi / 4.0, 1.0, 1.4]:
            expect = -(rho - math.sin(rho) * math.cos(rho)) / (2.0 * math.sin(rho) ** 2)
            assert sol.wprime_at(rho) == pytest.approx(expect, rel=1e-11)
        assert sol.wprime_at(0.0) == 0.0

    def test_p3_solution_values(self, model23):
        prob = RadialProblem(model23, 3.0, ONES, math.pi / 2.0)
        sol = solve_explicit(prob)
        assert sol.w_at(0.0) == pytest.approx(0.822599352717098133, abs=1e-9)
        assert sol.w_at(math.pi / 4.0) == pytest.approx(0.549758016754526660, abs=1e-9)

    def test_p15_solution_value(self, model23):
        prob = RadialProblem(model23, 1.5, ONES, math.pi / 2.0)
        sol = solve_explicit(prob)
        assert sol.w_at(0.0) == pytest.approx(0.232031321151025637, abs=1e-9)

    def test_constant_source_scaling(self, model23, half_ball_p2):
        # f = c scales the solution by c^{1/(p-1)}
        _, base = half_ball_p2
        c = 2.7
        prob = RadialProblem(model23, 2.0, lambda t: c * ONES(t), math.pi / 2.0)
        sol = solve_explicit(prob)
        for rho in [0.0, 0.7, 1.3]:
            assert sol.w_at(rho) == pytest.approx(c * base.w_at(rho), rel=1e-11)


class TestMassFormAgreement:
    def test_p2_constant_source(self, model23, half_ball_p2):
        prob, sol = half_ball_p2
        fsharp = StepFunction([prob.mass], [1.0, 0.0])
        alt = solve_mass_form(prob, fsharp)
        gap = np.max(np.abs(np.asarray(sol.w_at(alt.grid)) - alt.w))
        assert gap <= 1e-8

    def test_p3_decreasing_source(self, model23):
        # f(t) = cos(t) clipped; nonincreasing on [0, r1]
        f = lambda t: np.maximum(np.cos(np.asarray(t, dtype=float)), 0.0)
        prob = RadialProblem(model23, 3.0, f, math.pi / 2.0)
        sol = solve_explicit(prob)
        # rearrangement of a nonincreasing source: f(W^{-1}(s)) sampled at
        # cell midpoints in mass; clustered edges resolve the cube-root
        # cusp the inverse volume map puts at s = 0
        edges = cosine_grid(0.0, prob.mass, 4096)
        mids = model23.inverse_cumulative(0.5 * (edges[:-1] + edges[1:]))
        fs = StepFunction(edges[1:],
                          np.concatenate([f(mids), [0.0]]))
        alt = solve_mass_form(prob, fs)
        gap = np.max(np.abs(np.asarray(sol.w_at(alt.grid)) - alt.w))
        assert gap <= 5e-7  # step discretization of f dominates here

    def test_cap_space_constant_source(self):
        # shifted model density, frozen normalization from mpmath
        shift = 0.3
        ca = 1.56195694514365546
        dens = lambda t: np.sin(np.asarray(t, dtype=float) + shift) ** 2 / ca
        cap = WeightedInterval(dens, math.pi - shift, cd=(2.0, 3.0))
        r1 = cap.inverse_cumulative(0.4)
        assert r1 == pytest.approx(1.11783289012193243, abs=1e-10)
        prob = RadialProblem(cap, 2.0, ONES, r1)
        sol = solve_explicit(prob)
        assert sol.w_at(0.0) == pytest.approx(0.348404624505566404, abs=1e-9)
        fsharp = StepFunction([prob.mass], [1.0, 0.0])
        alt = solve_mass_form(prob, fsharp)
        gap = np.max(np.abs(np.asarray(sol.w_at(alt.grid)) - alt.w))
        assert gap <= 1e-8


MASS_CASES = [(a, ftext, p, v) for a in (0.0, 0.3)
              for ftext in ("const 1", "twolevel 2 0.5 0.25")
              for p in (1.5, 2.0, 3.0) for v in (0.3, 0.5, 0.7)]
MASS_IDS = [f"a{a:g}-{ftext.split()[0]}-p{p:g}-v{v:g}"
            for a, ftext, p, v in MASS_CASES]


@pytest.fixture(scope="module", params=MASS_CASES, ids=MASS_IDS)
def mass_case(request):
    """Problem, explicit solve and mass step of one (K=2, N=3) case."""
    a, ftext, p, v = request.param
    spec = cli._parse_source("mass", ftext)
    params = {"K": 2.0, "N": 3.0, "p": p, "v": v, "a": a, "f": spec}
    space, r1, prob, sol = cli._solve(params)
    return prob, sol, spec.mass_step(space, r1)


class TestMassTable:
    """The mass route reads one table in mass coordinates: its nodes and
    exact slope meet solve_explicit at rounding level."""

    def test_node_values(self, mass_case):
        prob, sol, sharp = mass_case
        alt = solve_mass_form(prob, sharp)
        gap = np.max(np.abs(np.asarray(sol.w_at(alt.grid)) - alt.w))
        assert gap <= 1e-13 * max(1.0, float(np.max(np.abs(alt.w))))

    def test_slope_between_nodes(self, mass_case):
        prob, sol, sharp = mass_case
        alt = solve_mass_form(prob, sharp)
        xs = np.linspace(0.0, prob.r1, 1001)[:-1] + 0.5e-3 * prob.r1
        gap = np.max(np.abs(alt.wprime_at(xs) - sol.wprime_at(xs)))
        assert gap <= 1e-13

    def test_no_adaptive_quadrature(self, mass_case, monkeypatch):
        prob, _, sharp = mass_case
        calls = []
        plain = numerics.integrate
        monkeypatch.setattr(numerics, "integrate",
                            lambda *a, **k: calls.append(a) or plain(*a, **k))
        solve_mass_form(prob, sharp)
        gradient_norm_mass(prob, sharp, prob.p)
        assert calls == []


class TestWeakForm:
    def test_exact_solution_has_tiny_residual(self, half_ball_p2):
        prob, sol = half_ball_p2
        assert weak_residual(sol, prob) <= 1e-6

    def test_exact_solution_p3(self, model23):
        prob = RadialProblem(model23, 3.0, ONES, math.pi / 2.0)
        sol = solve_explicit(prob)
        assert weak_residual(sol, prob) <= 1e-6

    def test_perturbed_solution_flagged(self, half_ball_p2):
        prob, sol = half_ball_p2
        scale = 0.1 * float(np.max(sol.w))
        r1 = sol.r1
        bump = lambda t: scale * np.sin(math.pi * np.asarray(t) / r1)
        bump_prime = lambda t: scale * (math.pi / r1) * np.cos(
            math.pi * np.asarray(t) / r1)
        from talenti_kit.radial_poisson import RadialSolution
        bad = RadialSolution(
            grid=sol.grid, w=sol.w + bump(sol.grid),
            wprime=sol.wprime + bump_prime(sol.grid), r1=sol.r1,
            w_at=lambda t: sol.w_at(t) + bump(t),
            wprime_at=lambda t: sol.wprime_at(t) + bump_prime(t),
            mass_at=sol.mass_at)
        assert weak_residual(bad, prob) > 1e-3


def _weak_residual_per_hat(sol, prob):
    """weak_residual as every hat computing its own three integrals, the
    flux over each half and the source over the whole support, and
    reading the mass of each half from the space's cumulative."""
    p = prob.p
    knots = cosine_grid(0.0, prob.r1, 33)
    density = prob.space.density
    qtol = Tolerance(rel=1e-10, abs=1e-14)
    worst = 0.0
    for j in range(1, 33):
        xl, xc, xr = knots[j - 1], knots[j], knots[j + 1]
        dl, dr = xc - xl, xr - xc

        def hat(t):
            t = np.asarray(t, dtype=float)
            return np.clip(np.minimum((t - xl) / dl, (xr - t) / dr), 0.0, 1.0)

        flux = lambda t: power_signed(sol.wprime_at(t), p - 1.0) * density(t)
        lhs = integrate(flux, xl, xc, qtol) / dl \
            - integrate(flux, xc, xr, qtol) / dr
        src = lambda t: np.asarray(prob.f(t), dtype=float) * hat(t) * density(t)
        rhs = integrate(src, xl, xr, qtol)
        ml, mr = np.diff(prob.space.cumulative(np.array([xl, xc, xr])))
        grad = ml / dl ** p + mr / dr ** p
        worst = max(worst, abs(lhs - rhs) / grad ** (1.0 / p))
    return worst


class TestWeakResidualOracle:
    """Integrals shared between neighbouring hats give the per-hat
    formula's bits."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("where", ["model", "cap"])
    def test_agrees_with_per_hat_integrals(self, model23, where, p):
        if where == "model":
            space, f, knots = model23, ONES, ()
        else:
            space = make_shifted_cap(2.0, 3.0, 0.3, 0.4)
            f = lambda t: np.where(np.asarray(t, dtype=float) < 0.3, 2.0, 0.5)
            knots = (0.3,)
        r1 = float(space.inverse_cumulative(0.4 * space.total))
        prob = RadialProblem(space, p, f, r1, f_knots=knots)
        sol = solve_explicit(prob)
        got = weak_residual(sol, prob)
        assert got > 0.0
        assert got == _weak_residual_per_hat(sol, prob)


class TestGradientNorms:
    def test_frozen_values_and_mass_identity(self, half_ball_p2):
        prob, sol = half_ball_p2
        frozen = {1.0: 0.233544138606828819, 1.5: 0.168614645470245615, 2.0: 0.125}
        fsharp = StepFunction([prob.mass], [1.0, 0.0])
        for r, expect in frozen.items():
            phys = gradient_norm(sol, prob, r)
            assert phys == pytest.approx(expect, rel=1e-9)
            mass = gradient_norm_mass(prob, fsharp, r)
            assert abs(phys - mass) <= 1e-13 * abs(phys)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan, 0.0])
    def test_exponent_must_be_positive_and_finite(self, half_ball_p2, r):
        prob, sol = half_ball_p2
        fsharp = StepFunction([prob.mass], [1.0, 0.0])
        with pytest.raises(InvalidParameter, match="positive and finite"):
            gradient_norm(sol, prob, r)
        with pytest.raises(InvalidParameter, match="positive and finite"):
            gradient_norm_mass(prob, fsharp, r)

    def test_mass_identity_p3(self, model23):
        prob = RadialProblem(model23, 3.0, ONES, math.pi / 2.0)
        sol = solve_explicit(prob)
        fsharp = StepFunction([prob.mass], [1.0, 0.0])
        for r in [1.0, 2.0, 3.0]:
            phys = gradient_norm(sol, prob, r)
            mass = gradient_norm_mass(prob, fsharp, r)
            assert abs(phys - mass) <= 1e-13 * abs(phys)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("where", ["model", "cap"])
    def test_node_sum_matches_knot_split_quadrature(self, model23, where,
                                                    p, r):
        # the reference is the adaptive integral of |w'|^r dm, split at
        # the source's jump
        space = model23 if where == "model" else make_shifted_cap(
            2.0, 3.0, 0.3, 0.4)
        r1 = float(space.inverse_cumulative(0.4))
        f = lambda t: np.where(np.asarray(t, dtype=float) < 0.3, 2.0, 0.5)
        prob = RadialProblem(space, p, f, r1, f_knots=(0.3,))
        sol = solve_explicit(prob)
        integrand = lambda t: np.abs(sol.wprime_at(t)) ** r * \
            np.asarray(space.density(t), dtype=float)
        qtol = Tolerance(rel=1e-14, abs=1e-300)
        ref = integrate(integrand, 0.0, 0.3, qtol) + \
            integrate(integrand, 0.3, r1, qtol)
        assert gradient_norm(sol, prob, r) == pytest.approx(ref, rel=1e-13)

    def test_no_adaptive_quadrature(self, half_ball_p2, monkeypatch):
        # a node sum over the cells of the solution's slope table
        prob, sol = half_ball_p2
        calls = []
        plain = numerics.integrate
        monkeypatch.setattr(numerics, "integrate",
                            lambda *a, **k: calls.append(a) or plain(*a, **k))
        gradient_norm(sol, prob, 1.5)
        assert calls == []

    def test_needs_the_slope_table(self, half_ball_p2):
        prob, _ = half_ball_p2
        alt = solve_mass_form(prob, StepFunction([prob.mass], [1.0, 0.0]))
        assert alt.slope is None
        with pytest.raises(InvalidParameter, match="slope table"):
            gradient_norm(alt, prob, 1.5)


class TestPowerSigned:
    def test_keeps_the_sign_of_zero(self):
        # eigen CSVs write z'(0) as -0, which passes through power_signed
        out = power_signed(np.array([-0.0, 0.0]), 0.5)
        assert out.tolist() == [0.0, 0.0]
        assert np.signbit(out).tolist() == [True, False]

    def test_odd_power(self):
        assert power_signed(np.array([-4.0, 9.0, -8.0]), 0.5).tolist() == [
            -2.0, 3.0, -math.sqrt(8.0)]


def _sup_const_one(a, r1, p):
    """sup u for f = 1 on the (K=2, N=3) model cut at a, to 30 digits.

    The density is sin(t + a)**2 up to a constant, so the slope is
    ((r - cos(2a + r) sin r) / (2 sin(r + a)**2))**(1/(p-1)); at a = 0
    the numerator cancels to about 2 r**3 / 3, hence the extra digits
    near r = 0.
    """
    def slope(r):
        with mp.workdps(30 + 3 * max(0, int(-mp.log10(r)))):
            num = r - mp.cos(2 * a + r) * mp.sin(r)
            return (num / (2 * mp.sin(r + a) ** 2)) ** e

    with mp.workdps(30):
        a, e = mp.mpf(a), mp.mpf(1) / (mp.mpf(p) - 1)
        return float(mp.quad(slope, [0, mp.mpf(r1)]))


class TestSupAgainstMpmath:
    """sup u = u(0) for f = 1 against an mpmath quadrature of the slope,
    which vanishes like r**(1/(p-1)) at the origin."""

    @pytest.mark.parametrize("p", [1.2, 2.0, 10.0])
    @pytest.mark.parametrize("a", [0.0, 0.25])
    def test_sup_u(self, a, p):
        space = ModelSpace(2.0, 3.0) if a == 0.0 else make_shifted_cap(
            2.0, 3.0, a)
        for r1 in (0.6, 1.3, 2.0):
            sol = solve_explicit(RadialProblem(space, p, ONES, r1))
            exact = _sup_const_one(a, r1, p)
            assert abs(sol.w_at(0.0) - exact) <= 1e-14 * exact


class TestStructure:
    @given(c=st.floats(min_value=0.1, max_value=3.0),
           rho=st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_source(self, model23, c, rho):
        # f1 <= f2 pointwise forces w1 <= w2 pointwise
        f1 = lambda t: c * (1.0 + 0.5 * np.sin(np.asarray(t)))
        f2 = lambda t: c * (1.6 + 0.5 * np.sin(np.asarray(t)))
        s1 = solve_explicit(RadialProblem(model23, 2.5, f1, math.pi / 2.0))
        s2 = solve_explicit(RadialProblem(model23, 2.5, f2, math.pi / 2.0))
        assert s1.w_at(rho) <= s2.w_at(rho) + 1e-12

    def test_solution_nonincreasing(self, half_ball_p2):
        _, sol = half_ball_p2
        assert np.all(np.diff(sol.w) <= 1e-14)
        assert np.all(sol.wprime <= 1e-14)

    def test_negative_source_rejected(self, model23):
        with pytest.raises(NegativeData):
            RadialProblem(model23, 2.0, lambda t: np.cos(np.asarray(t)) - 0.5,
                          math.pi / 2.0)

    def test_bad_exponent_rejected(self, model23):
        with pytest.raises(InvalidParameter):
            RadialProblem(model23, 1.0, ONES, 1.0)

    def test_full_interval_dirichlet_at_vanishing_density(self, model23):
        # r1 = L puts the boundary where the density vanishes; the outer
        # integral diverges and the solver must say so
        prob = RadialProblem(model23, 2.0, ONES, model23.length)
        with pytest.raises(IntegrabilityFailure):
            solve_explicit(prob)

    def test_ode_residual_by_finite_differences(self, half_ball_p2):
        # independent strong-form check: d/drho(dens * w') + dens * f = 0
        prob, sol = half_ball_p2
        dens = prob.space.density
        delta = 1e-5
        for rho in [0.4, 0.9, 1.3]:
            flux = lambda t: np.asarray(dens(t)) * np.asarray(sol.wprime_at(t))
            dflux = (flux(rho + delta) - flux(rho - delta)) / (2.0 * delta)
            resid = dflux + dens(rho) * 1.0
            assert abs(resid) <= 1e-7
