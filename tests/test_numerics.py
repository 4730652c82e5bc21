"""Quadrature, grid and monotone-table kernels.

Expected values were frozen from closed forms or 30-digit mpmath
evaluations so the kernels are never compared against themselves.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talenti_kit.errors import (
    Divergence,
    InvalidParameter,
    NonConvergence,
    OutOfDomain,
)
from talenti_kit import numerics
from talenti_kit.numerics import (
    DEFAULT_TOL,
    MonotoneTable,
    Tolerance,
    cosine_grid,
    integrate,
)


class TestIntegrate:
    def test_sin_squared_over_period(self):
        val = integrate(lambda t: np.sin(t) ** 2, 0.0, math.pi)
        assert val == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_inverse_sqrt_endpoint_singularity(self):
        val = integrate(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-9)

    def test_right_endpoint_singularity(self):
        val = integrate(lambda t: 1.0 / np.sqrt(1.0 - t), 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-9)

    def test_strong_power_singularity(self):
        # int_0^1 t^-0.9 = 10
        val = integrate(lambda t: t ** -0.9, 0.0, 1.0)
        assert val == pytest.approx(10.0, rel=1e-8)

    def test_log_singularity(self):
        # int_0^1 log(1/t) = 1
        val = integrate(lambda t: -np.log(t), 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_divergence_detected_for_1_over_t(self):
        with pytest.raises(Divergence):
            integrate(lambda t: 1.0 / t, 0.0, 1.0)

    def test_divergence_detected_for_strong_pole(self):
        with pytest.raises(Divergence):
            integrate(lambda t: t ** -1.5, 0.0, 1.0)

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_rejects_reversed_interval(self):
        with pytest.raises(InvalidParameter):
            integrate(np.sin, 1.0, 0.0)

    def test_smooth_oscillatory(self):
        # int_0^1 cos(20 t) = sin(20)/20
        val = integrate(lambda t: np.cos(20.0 * t), 0.0, 1.0)
        assert val == pytest.approx(math.sin(20.0) / 20.0, abs=1e-12)

    @given(split=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_additivity_over_subintervals(self, split):
        f = lambda t: np.exp(-t) * np.cos(3.0 * t)
        whole = integrate(f, 0.0, 1.0)
        parts = integrate(f, 0.0, split) + integrate(f, split, 1.0)
        assert abs(whole - parts) <= 2.0 * DEFAULT_TOL.abs + 1e-11 * abs(whole)


class TestGrid:
    def test_cosine_grid_clusters_at_ends(self):
        g = cosine_grid(0.0, 2.5, 64)
        assert g.size == 65
        assert g[0] == 0.0 and g[-1] == 2.5
        spacing = np.diff(g)
        assert spacing[0] < spacing[31]
        assert spacing[-1] < spacing[32]


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.rel == 1e-10 and t.abs == 1e-12

    def test_rejects_tiny_rel(self):
        with pytest.raises(InvalidParameter):
            Tolerance(rel=1e-17)

    def test_rejects_nonpositive_abs(self):
        with pytest.raises(InvalidParameter):
            Tolerance(abs=0.0)


class TestMonotoneTable:
    def setup_method(self):
        self.table = MonotoneTable(lambda t: np.sin(t) ** 2 * (2.0 / math.pi),
                                   math.pi)

    def test_cumulative_against_closed_form(self):
        for t in [0.3, math.pi / 4.0, 1.5, 2.9]:
            exact = (t - math.sin(t) * math.cos(t)) / math.pi
            assert self.table.cumulative(t) == pytest.approx(exact, abs=1e-13)

    def test_total_is_one(self):
        assert self.table.total == pytest.approx(1.0, abs=1e-13)

    def test_inverse_round_trip(self):
        vs = np.linspace(0.0, 1.0, 23)
        ts = self.table.inverse(vs)
        back = self.table.cumulative(ts)
        assert np.max(np.abs(back - vs)) < 1e-12

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            self.table.cumulative(math.pi + 0.1)
        with pytest.raises(OutOfDomain):
            self.table.inverse(1.1)

    @pytest.mark.parametrize("N", [3.0, 4.0])
    def test_inverse_newton_settles_at_vanishing_density(self, N):
        # sin**(N-1) vanishes like t**(N-1) at both ends: the pinned
        # endpoints and first-cell masses must neither stall nor be
        # thrown back to bisection.  Each Newton round costs two density
        # calls, so the call count bounds the rounds deterministically.
        calls = []

        def density(t):
            calls.append(1)
            return np.sin(np.asarray(t, dtype=float)) ** (N - 1.0)

        table = MonotoneTable(density, math.pi)
        vs = np.concatenate([[0.0, table.total],
                             table.total * np.logspace(-30.0, -1.0, 30)])
        calls.clear()
        ts = table.inverse(vs)
        assert len(calls) <= 21
        assert ts[0] == 0.0 and ts[1] == math.pi
        back = table.cumulative(ts[2:])
        assert np.max(np.abs(back - vs[2:]) / vs[2:]) < 1e-12

    def test_inverse_in_blocks_is_per_point(self, monkeypatch):
        # Newton settles each point on its own, so the block a point
        # lands in cannot change its bits: a permuted batch and one
        # single block give the same abscissas
        n = 3 * numerics._INVERSE_BLOCK + 17
        rng = np.random.default_rng(3)
        vs = self.table.total * rng.random(n)
        vs[:2] = (0.0, self.table.total)
        perm = rng.permutation(n)
        ts = self.table.inverse(vs)
        shuffled = np.empty(n)
        shuffled[perm] = self.table.inverse(vs[perm])
        assert ts.tobytes() == shuffled.tobytes()
        monkeypatch.setattr(numerics, "_INVERSE_BLOCK", n)
        assert self.table.inverse(vs).tobytes() == ts.tobytes()

    def test_inverse_round_budget_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_NEWTON_ROUNDS", 1)
        with pytest.raises(NonConvergence):
            self.table.inverse(np.linspace(0.05, 0.95, 7))

    def test_interior_queries_make_no_density_calls(self):
        calls = []

        def density(t):
            calls.append(1)
            return np.sin(np.asarray(t, dtype=float)) ** 2

        table = MonotoneTable(density, math.pi)
        calls.clear()
        table.cumulative(np.linspace(0.01, math.pi - 0.01, 10_000))
        assert calls == []
        # the first cell follows its fitted power law; the last integrates
        # a Kronrod panel over the remainder
        x = table._x
        table.cumulative(np.array([x[1] / 2.0, 0.5 * (x[-2] + x[-1])]))
        assert len(calls) == 1

    def test_cumulative_against_closed_form_at_many_points(self):
        ts = np.linspace(0.0, math.pi, 10_000)
        exact = (ts - np.sin(ts) * np.cos(ts)) / math.pi
        err = np.max(np.abs(self.table.cumulative(ts) - exact))
        assert err <= 1e-13 * self.table.total

    def test_cumulative_of_pinned_jump_against_closed_form(self):
        jump = 0.7
        table = MonotoneTable(
            lambda t: np.where(np.asarray(t, dtype=float) < jump, 1.0, 3.0),
            2.0, knots=(jump,))
        ts = np.linspace(0.0, 2.0, 10_000)
        exact = np.where(ts < jump, ts, jump + 3.0 * (ts - jump))
        assert table.total == pytest.approx(4.6, rel=1e-14)
        err = np.max(np.abs(table.cumulative(ts) - exact))
        assert err <= 1e-13 * table.total

    @pytest.mark.parametrize("density", [
        lambda t: np.sin(np.asarray(t, dtype=float)) ** 2,
        lambda t: np.exp(np.asarray(t, dtype=float)),
    ], ids=["vanishing", "positive"])
    def test_inverse_round_trip_relative_in_every_cell(self, density):
        # masses down to 1e-30 land in the first cell; with a density
        # positive at the right end, masses within 1e-15 of the total
        # land in the last one
        table = MonotoneTable(density, math.pi)
        vs = table.total * np.concatenate([
            np.logspace(-30.0, -1.0, 59),
            np.linspace(0.05, 0.95, 1001),
            1.0 - np.logspace(-15.0, -2.0, 27)])
        back = table.cumulative(table.inverse(vs))
        assert np.max(np.abs(back - vs) / vs) < 1e-12


class TestGradedTable:
    """A coarse cosine base graded geometrically into both endpoints."""

    def test_table_without_knots_is_small(self):
        table = MonotoneTable(np.sin, math.pi)
        assert table._x.size - 1 <= 300

    @pytest.mark.parametrize("length", [1e-3, 1.0, math.pi, 1e3])
    def test_cells_have_positive_width(self, length):
        # grading points that would round onto the right end are dropped
        table = MonotoneTable(lambda t: np.ones_like(np.asarray(t)), length)
        assert np.all(np.diff(table._x) > 0.0)
        assert table._x[0] == 0.0 and table._x[-1] == length

    @pytest.mark.parametrize("alpha", [-0.5, 0.1, 1.0 / 9.0, 0.5, 2.0])
    def test_power_law_masses_relative_down_to_tiny_masses(self, alpha):
        # the first cell follows the power law fitted to its nodes, so
        # masses far below its own stay relatively exact: t**alpha has
        # cumulative t**(alpha + 1) / (alpha + 1)
        table = MonotoneTable(lambda t: np.asarray(t, dtype=float) ** alpha,
                              1.0)
        ts = np.logspace(-30.0, 0.0, 301)
        exact = ts ** (alpha + 1.0) / (alpha + 1.0)
        assert np.max(np.abs(table.cumulative(ts) - exact) / exact) <= 2e-14

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_pin_one_ulp_from_a_node_makes_no_empty_cell(self, side):
        # base nodes sit at the even fine-grid positions
        node = MonotoneTable(np.sin, math.pi)._x[40]
        pin = float(np.nextafter(node, node + side))
        table = MonotoneTable(np.sin, math.pi, knots=(pin,))
        assert np.all(np.diff(table._x) > 0.0)
        ts = np.concatenate([np.linspace(0.0, math.pi, 1001), [node, pin]])
        err = np.max(np.abs(table.cumulative(ts) - (1.0 - np.cos(ts))))
        assert err <= 1e-14

    def test_density_zero_on_the_first_cell(self):
        # no power law fits a vanishing first cell; its Kronrod sum is 0
        jump = 0.5
        table = MonotoneTable(
            lambda t: np.where(np.asarray(t, dtype=float) < jump, 0.0, 2.0),
            1.0, knots=(jump,))
        ts = np.linspace(0.0, 1.0, 1001)
        exact = np.where(ts < jump, 0.0, 2.0 * (ts - jump))
        assert np.max(np.abs(table.cumulative(ts) - exact)) <= 1e-15
