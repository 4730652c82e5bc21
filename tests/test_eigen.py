"""Eigenpairs by inverse iteration, eigenvalue comparison and norm-ratio
checks.

The analytic anchor is the model with K = N-1 at half mass, where the
first eigenfunction is cos(t) with eigenvalue N; everything else is
cross-checked against the independent finite-element minimizer, the
Picone enclosure of an independent explicit solve, or pinned by frozen
eigenvalues reproduced at build time.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh, splu

from talenti_kit import eigen, numerics
from talenti_kit.errors import (
    InvalidMass,
    InvalidParameter,
    NoBracket,
    NoCrossing,
    NonConvergence,
)
from talenti_kit.eigen import (
    EigenPair,
    alpha_from_lambda,
    chiti_compare,
    eigenvalue_enclosure,
    faber_krahn_check,
    first_eigenpair,
    lp_norm,
    model_eigenpair,
    reverse_holder,
    stability_deficits,
)
from talenti_kit.radial_poisson import (
    RadialProblem,
    RadialSolution,
    WeightedInterval,
    power_signed,
    weak_residual,
)
from talenti_kit.talenti_check import (ProblemInstance, levy_gromov_radial,
                                       make_shifted_cap, model_for)

# frozen eigenvalues, reproduced by the FEM oracle to its O(h^2) bias in
# the cross-check tests below
LAM_CAP_P15 = 3.0751053538814097
LAM_CAP_P2 = 4.1252406292185455
LAM_CAP_P3 = 6.007383560303177
LAM_MODEL_04_P2 = 3.947492993543478


def rayleigh_fem(space: WeightedInterval, v: float, p: float) -> float:
    """Independent eigenvalue estimate from piecewise-linear elements,
    the FEM oracle of the cross-check tests.

    Uniform cells with exact per-cell masses from the cumulative table;
    for p = 2 the generalized tridiagonal eigenproblem, otherwise
    Rayleigh-quotient descent with Armijo backtracking seeded by the
    p = 2 eigenvector.  The raw gradient is preconditioned by the p = 2
    stiffness matrix (gradient descent in the energy metric); without it
    the 1/h^2 stiffness spectrum forces micro-steps and the quotient
    creeps.  Cross-check only: first-order elements carry an O(h^2)
    bias, far above the accuracy of the inverse iteration.
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise InvalidParameter(f"exponent p={p} must exceed 1")
    if not (0.0 < v < 1.0 and math.isfinite(v)):
        raise InvalidMass(f"mass fraction v={v} must lie in (0, 1)")
    n = 2048  # uniform cells; free nodes 0..n-1, node n pinned to zero
    r_v = float(space.inverse_cumulative(v * space.total))
    nodes = np.linspace(0.0, r_v, n + 1)
    wc = np.diff(np.asarray(space.cumulative(nodes), dtype=float))
    h = r_v / n

    diag_k = np.empty(n)
    diag_k[0] = wc[0]
    diag_k[1:] = wc[:-1] + wc[1:]
    off_k = -wc[:-1]
    K = diags([off_k, diag_k, off_k], (-1, 0, 1), format="csc") / h ** 2
    diag_m = np.empty(n)
    diag_m[0] = wc[0] / 3.0
    diag_m[1:] = (wc[:-1] + wc[1:]) / 3.0
    off_m = wc[:-1] / 6.0
    M = diags([off_m, diag_m, off_m], (-1, 0, 1), format="csc")
    vals, vecs = eigsh(K, k=1, M=M, sigma=0.0, which="LM")
    if p == 2.0:
        return float(vals[0])

    lu = splu(K)
    ml = np.empty(n)
    ml[0] = wc[0] / 2.0
    ml[1:] = (wc[:-1] + wc[1:]) / 2.0
    zf = np.abs(vecs[:, 0])
    zf /= float(np.max(zf))

    def quotient(zv):
        g = (np.append(zv[1:], 0.0) - zv) / h
        num = float(wc @ np.abs(g) ** p)
        den = float(ml @ np.abs(zv) ** p)
        return num, den, g

    num, den, g = quotient(zf)
    R = num / den
    step, stall = 1.0, 0
    for _ in range(800):
        flux = wc * power_signed(g, p - 1.0) / h
        dnum = p * (np.concatenate(([0.0], flux[:-1])) - flux)
        dden = p * ml * power_signed(zf, p - 1.0)
        grad = (dnum - R * dden) / den
        direction = lu.solve(grad)
        slope = float(grad @ direction)
        if slope <= 0.0:
            break
        accepted = False
        while step > 1e-16:
            trial = zf - step * direction
            num_t, den_t, _ = quotient(trial)
            if den_t > 0.0 and num_t / den_t <= R - 1e-4 * step * slope:
                zf = trial / float(np.max(np.abs(trial)))
                num, den, g = quotient(zf)
                r_new = num / den
                step *= 1.3
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        if R - r_new <= 1e-13 * max(R, 1.0):
            stall += 1
            if stall >= 10:
                R = r_new
                break
        else:
            stall = 0
        R = r_new
    return float(R)


@pytest.fixture(scope="module")
def cap():
    return make_shifted_cap(2.0, 3.0, 0.3)


@pytest.fixture(scope="module")
def cap_pair_p2(cap):
    return first_eigenpair(cap, 0.4, 2.0)


@pytest.fixture(scope="module")
def model_pair_p2():
    return model_eigenpair(2.0, 3.0, 2.0, 0.4)


@pytest.fixture(scope="module")
def chiti_pipeline(cap_pair_p2, model_pair_p2):
    """Instance pair, matched mass and the model pair at that mass."""
    u = cap_pair_p2
    alpha, z = alpha_from_lambda(model_pair_p2, u.lam)
    return u, alpha, z


class TestAnalyticAnchor:
    @pytest.mark.parametrize("N", [3.0, 4.0, 5.0])
    def test_half_mass_eigenvalue_is_dimension(self, N):
        pair = model_eigenpair(N - 1.0, N, 2.0, 0.5)
        assert pair.lam == pytest.approx(N, rel=1e-13)

    @pytest.mark.parametrize("N", [3.0, 4.0, 5.0])
    def test_half_mass_eigenfunction_is_cosine(self, N):
        # z and z' on a uniform grid, the output grid and points crowding
        # the pole, where z' is smallest against the solve's error
        pair = model_eigenpair(N - 1.0, N, 2.0, 0.5)
        t = np.concatenate([np.linspace(0.0, pair.r_alpha, 801),
                            pair.sol.grid, np.geomspace(1e-9, 1e-2, 200)])
        z0 = pair.z_at(0.0)
        assert np.max(np.abs(pair.z_at(t) / z0 - np.cos(t))) <= 2e-10
        assert np.max(np.abs(pair.zprime_at(t) / z0 + np.sin(t))) <= 1e-6

    def test_frozen_cap_eigenvalues(self, cap):
        for p, lam in [(1.5, LAM_CAP_P15), (2.0, LAM_CAP_P2),
                       (3.0, LAM_CAP_P3)]:
            pair = first_eigenpair(cap, 0.4, p)
            assert pair.lam == pytest.approx(lam, rel=5e-11)

    def test_profile_shape(self, cap_pair_p2):
        pair = cap_pair_p2
        grid = pair.sol.grid
        assert pair.z_at(0.0) == pytest.approx(1.0, abs=1e-12)
        assert pair.zprime_at(0.0) == 0.0
        assert pair.z_at(pair.r_alpha) == 0.0
        assert np.all(np.diff(pair.sol.w) <= 1e-12)
        assert np.all(pair.sol.w >= 0.0)


class TestConsistency:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_rayleigh_quotient_matches_eigenvalue(self, p):
        pair = model_eigenpair(2.0, 3.0, p, 0.4)
        assert abs(pair.rayleigh() - pair.lam) <= 1e-6 * pair.lam

    def test_rayleigh_on_instance(self, cap_pair_p2):
        pair = cap_pair_p2
        assert abs(pair.rayleigh() - pair.lam) <= 1e-6 * pair.lam

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_weak_residual_of_eigen_datum(self, cap, p):
        pair = first_eigenpair(cap, 0.4, p)

        def datum(t):
            z = np.asarray(pair.z_at(t), dtype=float)
            return pair.lam * z ** (p - 1.0)

        prob = RadialProblem(cap, p, datum, pair.r_alpha)
        assert weak_residual(pair.sol, prob) <= 1e-6

    def test_mass_at_is_flux(self, cap_pair_p2):
        # int_0^rho lam z^{p-1} dm recomputed by quadrature
        pair = cap_pair_p2
        dens = pair.space.density

        def datum(t):
            return pair.lam * np.asarray(pair.z_at(t), dtype=float) * \
                np.asarray(dens(t), dtype=float)

        for rho in (0.3, 0.7, pair.r_alpha):
            direct = numerics.integrate(datum, 0.0, rho,
                                        numerics.Tolerance(rel=1e-11, abs=1e-15))
            assert pair.sol.mass_at(rho) == pytest.approx(direct, rel=1e-8)

    def test_density_scaling_invariance(self, cap):
        scaled_space = WeightedInterval(lambda t: 3.0 * cap.density(t),
                                        cap.length, cd=cap.cd)
        a = first_eigenpair(cap, 0.4, 2.0)
        b = first_eigenpair(scaled_space, 0.4, 2.0)
        assert b.lam == pytest.approx(a.lam, rel=1e-9)

    def test_validation(self, cap):
        with pytest.raises(InvalidMass):
            first_eigenpair(cap, 0.0, 2.0)
        with pytest.raises(InvalidMass):
            first_eigenpair(cap, 1.0, 2.0)
        with pytest.raises(InvalidParameter):
            first_eigenpair(cap, 0.4, 1.0)


class TestFemCrossCheck:
    def test_linear_case_agrees(self, cap):
        fem = rayleigh_fem(cap, 0.4, 2.0)
        assert fem == pytest.approx(LAM_CAP_P2, rel=1e-3)
        # first-order elements should do much better than the band
        assert fem == pytest.approx(LAM_CAP_P2, rel=1e-5)

    @pytest.mark.parametrize("p,lam", [(1.5, LAM_CAP_P15), (3.0, LAM_CAP_P3)])
    def test_nonlinear_descent_agrees(self, cap, p, lam):
        assert rayleigh_fem(cap, 0.4, p) == pytest.approx(lam, rel=1e-3)

    def test_model_case(self):
        fem = rayleigh_fem(model_for(2.0, 3.0),
                           0.5, 2.0)
        assert fem == pytest.approx(3.0, rel=1e-4)


class TestAlphaFromLambda:
    def test_fixed_point(self):
        pair = model_eigenpair(2.0, 3.0, 2.0, 0.45)
        alpha, z = alpha_from_lambda(pair, pair.lam)
        assert alpha == 0.45
        assert z is pair

    def test_target_within_gate_below_returns_up(self, model_pair_p2):
        # under up.lam by less than the 1e-6 relative gate: no bracket
        # error, and the short-cut hands back the caller's pair
        up = model_pair_p2
        alpha, z = alpha_from_lambda(up, up.lam * (1.0 - 1e-7))
        assert alpha == up.v
        assert z is up

    def test_half_mass_anchor(self):
        alpha, _ = alpha_from_lambda(model_eigenpair(2.0, 3.0, 2.0, 0.7), 3.0)
        assert alpha == pytest.approx(0.5, abs=1e-6)

    def test_larger_target_means_smaller_mass(self):
        up = model_eigenpair(2.0, 3.0, 2.0, 0.6)
        alpha, _ = alpha_from_lambda(up, 2.0 * up.lam)
        assert 0.0 < alpha < 0.6
        check = model_eigenpair(2.0, 3.0, 2.0, alpha).lam
        assert check == pytest.approx(2.0 * up.lam, rel=1e-8)

    def test_no_bracket_below_upper_eigenvalue(self):
        up = model_eigenpair(2.0, 3.0, 2.0, 0.7)
        with pytest.raises(NoBracket):
            alpha_from_lambda(up, 0.5 * up.lam)

    def test_one_integration_one_eigenpair_solve(self, monkeypatch):
        # one shot finds alpha, one first_eigenpair call on that ball
        up = model_eigenpair(2.0, 3.0, 2.0, 0.6)
        calls, shots = [], []
        real, ivp = eigen.first_eigenpair, eigen.solve_ivp

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def shooting(*args, **kwargs):
            shots.append(1)
            return ivp(*args, **kwargs)

        monkeypatch.setattr(eigen, "first_eigenpair", counting)
        monkeypatch.setattr(eigen, "solve_ivp", shooting)
        alpha, z = alpha_from_lambda(up, 1.5 * up.lam)
        assert 0.0 < alpha < 0.6
        assert len(shots) == 1
        assert calls == [(up.space, alpha, 2.0)]
        assert z.v == alpha

    @pytest.mark.parametrize("a", [0.05, 0.3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_model_eigenvalue_hits_cap_target(self, p, a):
        cap = make_shifted_cap(2.0, 3.0, a, 0.4)
        up = model_eigenpair(2.0, 3.0, p, 0.4)
        target = first_eigenpair(cap, 0.4, p, seed=up.lam).lam
        alpha, z = alpha_from_lambda(up, target)
        fresh = model_eigenpair(2.0, 3.0, p, alpha)
        assert abs(fresh.lam - target) <= 1e-11 * target
        # the returned pair is the model pair at alpha
        assert z.lam == fresh.lam
        assert z.v == alpha
        grid = fresh.sol.grid
        assert np.max(np.abs(z.z_at(grid) - fresh.sol.w)) <= 1e-10

    def test_no_zero_inside_raises(self, monkeypatch):
        up = model_eigenpair(2.0, 3.0, 2.0, 0.6)
        monkeypatch.setattr(eigen, "_first_zero", lambda *args: math.inf)
        with pytest.raises(NonConvergence):
            alpha_from_lambda(up, 2.0 * up.lam)


class TestShootingSolves:
    """first_eigenpair makes no solve_ivp call, seeded or not, and its
    inverse iteration settles across dimensions and exponents."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = eigen.solve_ivp

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(eigen, "solve_ivp", counting)
        return calls

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_model_seeded_cap_pair_within_eight_solves(self, cap, p,
                                                       monkeypatch):
        seed = model_eigenpair(2.0, 3.0, p, 0.4).lam
        calls = self._counted(monkeypatch)
        first_eigenpair(cap, 0.4, p, seed=seed)
        assert calls == []

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_seed_far_off_gives_the_same_eigenvalue(self, cap, p):
        seed = model_eigenpair(2.0, 3.0, p, 0.4).lam
        lam = first_eigenpair(cap, 0.4, p, seed=seed).lam
        for factor in (100.0, 0.01):
            far = first_eigenpair(cap, 0.4, p, seed=factor * seed).lam
            assert abs(far - lam) <= 1e-12 * lam

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_default_seed_within_eight_solves(self, p, monkeypatch):
        calls = self._counted(monkeypatch)
        first_eigenpair(model_for(2.0, 3.0), 0.4, p)
        assert calls == []

    @pytest.mark.parametrize("v", [0.1, 0.5, 0.9])
    def test_high_dimensional_model_converges(self, v):
        # K = 9, N = 10, p = 1.5: the density ~t^9 near the pole
        pair = model_eigenpair(9.0, 10.0, 1.5, v)
        fem = rayleigh_fem(model_for(9.0, 10.0), v, 1.5)
        assert pair.lam == pytest.approx(fem, rel=1e-3)

    def test_near_full_mass_settles(self, monkeypatch):
        # near the end of the segment, where the first zero of a shot
        # barely moves with lam
        cap = make_shifted_cap(2.0, 3.0, 0.1, 0.99)
        calls = self._counted(monkeypatch)
        lam = first_eigenpair(cap, 0.99, 1.5).lam
        assert calls == []
        assert rayleigh_fem(cap, 0.99, 1.5) == pytest.approx(lam, rel=1e-3)

    @pytest.mark.parametrize("K,N,p,v", [(19.0, 20.0, 1.5, 0.5),
                                         (19.0, 20.0, 1.5, 0.1),
                                         (9.0, 10.0, 1.1, 0.5),
                                         (19.0, 20.0, 1.1, 0.5)])
    def test_high_dimension_and_small_p_pairs(self, K, N, p, v):
        # the density ~t^{N-1} underflows in the graded cells near the
        # pole, and p near 1 raises the flux ratio to a high power
        pair = model_eigenpair(K, N, p, v)
        assert abs(pair.rayleigh() - pair.lam) <= 1e-10 * pair.lam
        lo, hi = eigenvalue_enclosure(pair)
        assert max(hi, pair.lam) - min(lo, pair.lam) <= 1e-10 * pair.lam

    def test_unsettled_iteration_raises(self, cap, monkeypatch):
        monkeypatch.setattr(eigen, "_ITERATIONS", 3)
        with pytest.raises(NonConvergence, match="after 3 steps"):
            first_eigenpair(cap, 0.4, 2.0)


def model_or_cap(N, kind):
    if kind == "model":
        return model_for(N - 1.0, N)
    return make_shifted_cap(N - 1.0, N, 0.1)


class TestNodeSumNorms:
    """lp_norm and rayleigh are node sums over the pair's slope table,
    checked against adaptive quadrature of z_at."""

    TOL = numerics.Tolerance(rel=1e-11, abs=1e-15)

    @pytest.mark.parametrize("kind", ["model", "cap"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_norms_match_adaptive_quadrature(self, kind, p):
        space = model_or_cap(3.0, kind)
        pair = first_eigenpair(space, 0.4, p)
        dens = space.density
        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            oracle = numerics.integrate(
                lambda x: pair.z_at(x) ** t * np.asarray(dens(x)),
                0.0, pair.r_alpha, self.TOL) ** (1.0 / t)
            assert abs(lp_norm(pair, t) - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("N", [3.0, 4.0])
    def test_rayleigh_on_the_anchors(self, N):
        pair = model_eigenpair(N - 1.0, N, 2.0, 0.5)
        assert abs(pair.rayleigh() - pair.lam) <= 1e-12 * pair.lam

    def test_no_adaptive_quadrature(self, cap_pair_p2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate called")

        monkeypatch.setattr(numerics, "integrate", refuse)
        lp_norm(cap_pair_p2, 2.0)
        cap_pair_p2.rayleigh()

    def test_needs_the_slope_table(self, cap_pair_p2):
        pair = cap_pair_p2
        bare = EigenPair(pair.lam, dataclasses.replace(pair.sol, slope=None),
                         pair.p, pair.space, pair.v)
        with pytest.raises(InvalidParameter, match="slope table"):
            lp_norm(bare, 2.0)
        with pytest.raises(InvalidParameter, match="slope table"):
            bare.rayleigh()

    def test_node_value_slope_has_no_inverse(self):
        # the pair's slope table holds node values only, so level radii
        # of an eigenfunction are refused with a typed error
        cap = make_shifted_cap(2.0, 3.0, 0.3, 0.4)
        pair = first_eigenpair(cap, 0.4, 2.0)
        with pytest.raises(InvalidParameter, match="node values"):
            pair.sol.slope.inverse(0.5 * pair.sol.slope.total)
        inst = ProblemInstance(cap, 2.0, lambda t: np.ones_like(t), 0.4)
        with pytest.raises(InvalidParameter, match="node values"):
            levy_gromov_radial(inst, pair.sol, [0.5])


class TestFaberKrahn:
    def test_model_instance_equality(self):
        cap0 = make_shifted_cap(2.0, 3.0, 0.0)
        fk = faber_krahn_check(cap0, 0.4, 2.0)
        assert abs(fk.margin) <= 1e-6

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_cap_margin_nonnegative(self, cap, p):
        fk = faber_krahn_check(cap, 0.4, p)
        assert fk.margin >= -1e-8
        assert fk.instance.lam >= fk.model.lam - 1e-8

    def test_cap_margin_strict(self, cap):
        fk = faber_krahn_check(cap, 0.4, 2.0)
        assert fk.margin > 0.1
        assert fk.model.lam == pytest.approx(LAM_MODEL_04_P2, rel=1e-10)

    def test_model_segment_solves_once(self, monkeypatch):
        # the anchors' instance is the shared model segment itself
        calls = []
        real = eigen.first_eigenpair

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(eigen, "first_eigenpair", counting)
        fk = faber_krahn_check(model_for(2.0, 3.0), 0.5, 2.0)
        assert len(calls) == 1
        assert fk.instance is fk.model
        assert fk.margin == 0.0

    def test_untagged_space_rejected(self):
        plain = WeightedInterval(lambda t: np.exp(-np.asarray(t, dtype=float)),
                                 1.0)
        with pytest.raises(InvalidParameter):
            faber_krahn_check(plain, 0.4, 2.0)


class TestChiti:
    def test_single_crossing_on_cap(self, chiti_pipeline):
        u, alpha, z = chiti_pipeline
        r1, viol = chiti_compare(u, z, 1.0)
        assert 0.0 < r1 < z.r_alpha
        assert viol <= 1e-6

    def test_two_sided_ordering(self, chiti_pipeline):
        u, alpha, z = chiti_pipeline
        r1, _ = chiti_compare(u, z, 1.0)
        c = lp_norm(u, 1.0) / lp_norm(z, 1.0)
        x = np.linspace(0.0, z.r_alpha, 2001)
        s = np.minimum(np.asarray(z.space.cumulative(x)), u.v)
        ustar = np.asarray(u.sol.w_at(u.space.inverse_cumulative(s)))
        d = ustar - c * np.asarray(z.z_at(x))
        assert np.max(d[x <= r1]) <= 1e-6
        assert np.min(d[x >= r1]) >= -1e-6

    def test_model_degenerate_equality(self, model_pair_p2):
        cap0 = make_shifted_cap(2.0, 3.0, 0.0)
        u = first_eigenpair(cap0, 0.4, 2.0)
        _, z = alpha_from_lambda(model_pair_p2, u.lam)
        r1, viol = chiti_compare(u, z, 1.0)
        assert r1 == z.r_alpha
        assert viol == 0.0

    def test_one_sided_difference_raises(self):
        z = model_eigenpair(2.0, 3.0, 2.0, 0.4)
        mid, wid, amp = 0.5 * z.r_alpha, 0.02 * z.r_alpha, 5e-6
        base = z.sol

        def w_at(t):
            arr = np.asarray(base.w_at(t), dtype=float)
            tt = np.asarray(t, dtype=float)
            return arr + amp * np.exp(-(((tt - mid) / wid) ** 2))

        sol = RadialSolution(grid=base.grid, w=np.asarray(w_at(base.grid)),
                             wprime=base.wprime, r1=base.r1,
                             w_at=w_at, wprime_at=base.wprime_at,
                             mass_at=base.mass_at)
        bumped = EigenPair(z.lam, sol, 2.0, z.space, z.v)
        # the hand-built pair has no slope table, so no norm: the bump
        # moves the matched L^1 scale by 4.2e-7, inside the 1e-6 band
        with pytest.raises(NoCrossing):
            chiti_compare(bumped, z, 1.0, scale=1.0)

    def test_validation(self, chiti_pipeline):
        u, _, z = chiti_pipeline
        with pytest.raises(InvalidParameter):
            chiti_compare(u, z, 0.0)
        with pytest.raises(InvalidParameter, match="positive and finite"):
            chiti_compare(u, z, math.inf)
        mismatched = model_eigenpair(2.0, 3.0, 3.0, 0.4)
        with pytest.raises(InvalidParameter):
            chiti_compare(u, mismatched, 1.0)


class TestReverseHolder:
    def test_instance_dominated_by_model(self, chiti_pipeline):
        u, _, z = chiti_pipeline
        rep = reverse_holder(u, z, 1.0, [1.0, 2.0, 5.0])
        for t in rep.t_grid:
            assert rep.ratios_instance[t] <= rep.ratios_model[t] + 1e-8
        # strict gap once t exceeds the base exponent
        assert rep.ratios_model[2.0] - rep.ratios_instance[2.0] > 1e-6
        assert rep.ratios_model[5.0] - rep.ratios_instance[5.0] > 1e-6

    def test_base_exponent_ratio_is_one(self, chiti_pipeline):
        u, _, z = chiti_pipeline
        rep = reverse_holder(u, z, 1.0, [1.0, 2.0])
        assert rep.ratios_instance[1.0] == 1.0
        assert rep.ratios_model[1.0] == 1.0

    def test_model_against_itself_is_equality(self):
        z = model_eigenpair(2.0, 3.0, 2.0, 0.4)
        rep = reverse_holder(z, z, 1.0, [1.0, 2.0, 5.0])
        for t in rep.t_grid:
            assert rep.ratios_instance[t] == pytest.approx(
                rep.ratios_model[t], abs=1e-8)

    def test_delta_only_for_matching_base(self, chiti_pipeline):
        u, _, z = chiti_pipeline
        assert reverse_holder(u, z, 1.0, [2.0]).delta >= 0.0
        assert math.isnan(reverse_holder(u, z, 2.0, [2.0, 3.0]).delta)

    def test_exponent_below_base_rejected(self, chiti_pipeline):
        u, _, z = chiti_pipeline
        with pytest.raises(InvalidParameter):
            reverse_holder(u, z, 2.0, [1.0])

    def test_infinite_exponents_rejected(self, chiti_pipeline):
        u, _, z = chiti_pipeline
        with pytest.raises(InvalidParameter, match="positive and finite"):
            reverse_holder(u, z, math.inf, [math.inf])
        with pytest.raises(InvalidParameter, match="positive and finite"):
            lp_norm(u, math.inf)

    def test_one_norm_per_pair_and_exponent(self, chiti_pipeline,
                                            monkeypatch):
        # the base exponent r = p - 1 is also the deficit's normalization:
        # each of the 3 exponents is integrated once per pair
        u, _, z = chiti_pipeline
        calls = []
        real = eigen.lp_norm

        def counting(pair, t):
            calls.append((id(pair), t))
            return real(pair, t)

        monkeypatch.setattr(eigen, "lp_norm", counting)
        r = u.p - 1.0
        rep = reverse_holder(u, z, r, (r, 2.0 * r, 5.0 * r))
        assert len(calls) == len(set(calls)) == 6
        assert rep.delta >= 0.0


class TestStabilityDeficit:
    def test_model_self_deficit_vanishes(self):
        z = model_eigenpair(2.0, 3.0, 2.0, 0.4)
        assert max(stability_deficits(z, z, 2.0, [2.0, 3.0])) <= 1e-10

    def test_grows_with_shift(self, model_pair_p2):
        deltas = []
        for a in (0.1, 0.25, 0.4):
            space = make_shifted_cap(2.0, 3.0, a)
            u = first_eigenpair(space, 0.4, 2.0)
            _, z = alpha_from_lambda(model_pair_p2, u.lam)
            deltas.append(max(stability_deficits(u, z, 2.0, [2.0, 3.0])))
        assert deltas[0] > 0.0
        assert deltas[0] < deltas[1] < deltas[2]

    def test_subquadratic_branch_formula(self, cap):
        p = 1.5
        u = first_eigenpair(cap, 0.4, p)
        _, z = alpha_from_lambda(model_eigenpair(2.0, 3.0, p, 0.4), u.lam)
        got = max(stability_deficits(u, z, p, [1.0, 2.0]))
        c = lp_norm(u, p - 1.0) / lp_norm(z, p - 1.0)
        want = max(
            max(c * lp_norm(z, t) - lp_norm(u, t), 0.0) ** (p - 1.0)
            for t in (1.0, 2.0))
        assert got == pytest.approx(max(want, 0.0), rel=1e-12)

    def test_exponents_must_exceed_p_minus_one(self, chiti_pipeline):
        u, _, z = chiti_pipeline
        with pytest.raises(InvalidParameter):
            stability_deficits(u, z, 2.0, [1.0, 2.0])
        with pytest.raises(InvalidParameter):
            stability_deficits(u, z, 2.0, [])


class TestMassCoordinateDerivative:
    """The rearranged eigenfunction against its isoperimetric bound.

    In mass coordinates the model eigenfunction saturates
    -dz/ds = M(s)^{1/(p-1)} / I(s)^{p/(p-1)} with M the cumulative
    datum mass, and instance eigenfunctions sit below the same
    right-hand side built from the model profile.
    """

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_model_equality(self, p):
        pair = model_eigenpair(2.0, 3.0, p, 0.4)
        model = model_for(2.0, 3.0)
        e = 1.0 / (p - 1.0)
        s = np.linspace(0.05 * 0.4, 0.95 * 0.4, 300)
        I = np.asarray(model.isoperimetric_profile(s))
        rho = np.asarray(model.inverse_cumulative(s))
        rhs = np.asarray(pair.sol.mass_at(rho)) ** e / I ** (1.0 + e)
        ds = 1e-6 * 0.4
        up = np.asarray(pair.z_at(model.inverse_cumulative(s + ds)))
        dn = np.asarray(pair.z_at(model.inverse_cumulative(s - ds)))
        lhs = -(up - dn) / (2.0 * ds)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-4

    def test_instance_inequality(self, cap, cap_pair_p2):
        pair = cap_pair_p2
        model = model_for(2.0, 3.0)
        s = np.linspace(0.02 * 0.4, 0.98 * 0.4, 300)
        I = np.asarray(model.isoperimetric_profile(s))
        rho = np.asarray(cap.inverse_cumulative(s))
        rhs = np.asarray(pair.sol.mass_at(rho)) / I ** 2.0
        ds = 1e-6 * 0.4
        up = np.asarray(pair.z_at(cap.inverse_cumulative(s + ds)))
        dn = np.asarray(pair.z_at(cap.inverse_cumulative(s - ds)))
        lhs = -(up - dn) / (2.0 * ds)
        assert np.max(lhs - rhs) <= 1e-6


class TestProfileState:
    """z_at, zprime_at and mass_at (the solution's w_at, wprime_at and
    mass_at) clip t to [0, r_v] and agree between scalars and arrays."""

    @staticmethod
    def _points(pair):
        r_v = pair.r_alpha
        near = 1e-6 * r_v
        return [0.0, 0.5 * near, near, math.nextafter(near, math.inf),
                0.5 * r_v, r_v, 1.25 * r_v]

    @staticmethod
    def _bits(x):
        return np.asarray(x, dtype=float).tobytes()

    @pytest.mark.parametrize("name", ["w_at", "wprime_at", "mass_at"])
    def test_scalar_and_array_paths_agree(self, cap_pair_p2, name):
        pts = self._points(cap_pair_p2)
        fn = getattr(cap_pair_p2.sol, name)
        arr = fn(np.array(pts))
        for i, t in enumerate(pts):
            one = fn(t)
            assert isinstance(one, float)
            assert self._bits(one) == self._bits(arr[i])

    def test_pinned_from_r_v_on(self, cap_pair_p2):
        pair = cap_pair_p2
        r_v = pair.r_alpha
        past = np.array([r_v, math.nextafter(r_v, math.inf), 1.25 * r_v])
        assert self._bits(pair.z_at(past)) == self._bits(np.zeros(3))
        assert self._bits(pair.zprime_at(past)) == self._bits(
            np.full(3, pair.zprime_at(r_v)))
        assert self._bits(pair.sol.mass_at(past)) == self._bits(
            np.full(3, pair.sol.mass_at(r_v)))
        assert pair.zprime_at(r_v) < 0.0 < pair.sol.mass_at(r_v)

    def test_origin_slope_is_negative_zero(self, model_pair_p2):
        zp = model_pair_p2.zprime_at(0.0)
        assert zp == 0.0 and math.copysign(1.0, zp) == -1.0


class TestPropertySweep:
    @settings(max_examples=5, deadline=None)
    @given(shift=st.floats(0.0, 0.5), v=st.floats(0.25, 0.6),
           p=st.floats(1.4, 3.2))
    def test_shooting_pairs_are_consistent(self, shift, v, p):
        space = make_shifted_cap(2.0, 3.0, shift)
        fk = faber_krahn_check(space, v, p)
        assert fk.margin >= -1e-8
        pair = first_eigenpair(space, v, p, seed=fk.instance.lam)
        assert pair.z_at(0.0) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(pair.sol.w) <= 1e-12)
        assert abs(pair.rayleigh() - pair.lam) <= 1e-6 * pair.lam


class TestModelPairCache:
    """Model pairs are not cached; they share the model_for segment."""

    def test_pair_lives_on_the_shared_model(self):
        assert model_eigenpair(2.0, 3.0, 2.0, 0.4).space is model_for(2.0, 3.0)


class TestCapLifetime:
    def test_cap_is_freed_after_shooting(self):
        # reference counting alone must free a cap and its table once the
        # caller drops the pair: the solver's own cycles may not hold them
        gc.disable()
        try:
            cap = make_shifted_cap(2, 3, 0.25, 0.4)
            pair = first_eigenpair(cap, 0.4, 2.0)
            cap_ref, table_ref = weakref.ref(cap), weakref.ref(cap._table)
            del pair, cap
            assert cap_ref() is None
            assert table_ref() is None
        finally:
            gc.enable()
