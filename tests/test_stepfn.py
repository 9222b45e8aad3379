from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepdirect.cmp import CmpParams, cmp_target
from stepdirect.errors import BracketError, DomainError
from stepdirect.stepfn import (
    KnotTable,
    build_step,
    equal_spaced_knots,
    find_u_hi,
    find_u_lo,
    insert_knot,
    knot_table_rows,
    log_total_rect_area,
    select_knots,
    step_cdf,
    step_logpdf_unnorm,
    step_quantile,
    step_quantile_many,
    total_rect_area,
)
from tests.test_target import quadratic_target


@pytest.fixture(scope="module")
def quad():
    return quadratic_target()


@pytest.fixture(scope="module")
def quad_window(quad):
    u_lo = find_u_lo(quad)
    return u_lo, find_u_hi(quad, u_lo)


class TestKnotTable:
    def test_validation(self):
        with pytest.raises(DomainError):
            KnotTable(np.array([0.1]), np.array([0.0]))
        with pytest.raises(DomainError):
            KnotTable(np.array([0.2, 0.1]), np.array([0.0, -1.0]))

    def test_log_probs_forced_nonincreasing(self):
        kt = KnotTable(np.array([0.1, 0.2, 0.3]), np.array([-1.0, -0.5, -2.0]))
        assert np.all(np.diff(kt.log_probs) <= 0)


class TestDescentWindow:
    def test_window_brackets_descent(self, quad, quad_window):
        u_lo, u_hi = quad_window
        assert 0.0 < u_lo < u_hi <= 1.0
        assert not math.isinf(quad.log_prob_Au(u_lo))
        assert math.isinf(quad.log_prob_Au(u_hi))

    def test_u_lo_sits_at_first_drop(self, quad, quad_window):
        u_lo, _ = quad_window
        # P(A_u) = 1 until u passes the weight's minimum over the support,
        # which for the quadratic weight is w(1) = exp(-5 * 0.49).
        assert math.exp(quad.log_prob_Au(u_lo)) < 1.0
        assert u_lo == pytest.approx(math.exp(-5.0 * 0.49), abs=1e-8)

    def test_find_u_hi_needs_mass_at_u_lo(self):
        # This discrete target's superlevel set empties just below u = 1.
        target = cmp_target(CmpParams(2.0, 5.0))
        with pytest.raises(BracketError):
            find_u_hi(target, 1.0 - 1e-12)

    def test_find_u_hi_domain(self, quad):
        with pytest.raises(DomainError):
            find_u_hi(quad, 0.0)

    def test_discrete_target_window(self):
        target = cmp_target(CmpParams(2.0, 2.0))
        u_lo = find_u_lo(target)
        u_hi = find_u_hi(target, u_lo)
        assert 0.0 < u_lo < u_hi <= 1.0
        assert math.isinf(target.log_prob_Au(u_hi))


class TestKnotSelection:
    def test_equal_spacing(self, quad, quad_window):
        u_lo, u_hi = quad_window
        kt = equal_spaced_knots(quad, u_lo, u_hi, 10)
        assert kt.knots.size == 11
        assert np.allclose(np.diff(kt.knots), (u_hi - u_lo) / 10)

    def test_greedy_knot_count(self, quad, quad_window):
        u_lo, u_hi = quad_window
        for kind in ("arithmetic", "geometric", "hybrid"):
            kt = select_knots(quad, u_lo, u_hi, 12, kind)
            assert kt.knots.size == 13
            assert kt.knots[0] == u_lo and kt.knots[-1] == u_hi

    def test_greedy_area_nonincreasing_in_knots(self, quad, quad_window):
        u_lo, u_hi = quad_window
        for kind in ("arithmetic", "geometric"):
            areas = [
                total_rect_area(select_knots(quad, u_lo, u_hi, n, kind))
                for n in range(1, 20)
            ]
            assert all(b <= a + 1e-15 for a, b in zip(areas, areas[1:]))

    def test_greedy_beats_seed_interval(self, quad, quad_window):
        u_lo, u_hi = quad_window
        seed_area = total_rect_area(select_knots(quad, u_lo, u_hi, 1, "arithmetic"))
        split_area = total_rect_area(select_knots(quad, u_lo, u_hi, 16, "arithmetic"))
        assert split_area < seed_area

    def test_domain_errors(self, quad):
        with pytest.raises(DomainError):
            select_knots(quad, 0.5, 0.5, 4)
        with pytest.raises(DomainError):
            select_knots(quad, 0.0, 0.5, 4)
        with pytest.raises(DomainError):
            select_knots(quad, 0.1, 0.5, 0)
        with pytest.raises(DomainError):
            equal_spaced_knots(quad, 0.0, 0.5, 4)
        with pytest.raises(DomainError):
            select_knots(quad, 0.1, 0.5, 4, "cubic")
        with pytest.raises(DomainError):
            select_knots(quad, 0.1, 0.5, 4, "geometric", omega=1.5)


class TestStepApprox:
    @staticmethod
    @pytest.fixture(scope="class")
    def step(quad, quad_window):
        u_lo, u_hi = quad_window
        return build_step(select_knots(quad, u_lo, u_hi, 15, "hybrid"))

    def test_cdf_shape(self, step):
        assert step.grid_cdf[0] == 0.0
        assert step.grid_cdf[-1] == 1.0
        assert np.all(np.diff(step.grid_cdf) >= 0)

    def test_cdf_quantile_round_trip(self, step):
        phi = np.linspace(0.01, 0.99, 37)
        u = step_quantile_many(step, phi)
        assert np.allclose(step_cdf(step, u), phi, atol=1e-9)

    def test_scalar_and_vector_quantiles_agree(self, step):
        for phi in (0.0, 0.123, 0.5, 0.987, 1.0):
            assert step_quantile(step, phi) == pytest.approx(
                float(step_quantile_many(step, phi)[0]), abs=1e-12
            )

    def test_quantile_domain(self, step):
        with pytest.raises(DomainError):
            step_quantile(step, 1.5)
        with pytest.raises(DomainError):
            step_quantile_many(step, np.array([-0.1]))

    def test_logpdf_pieces(self, step):
        lp = step.table.log_probs
        knots = step.table.knots
        # Left of the first knot the envelope carries the first plateau value.
        assert step_logpdf_unnorm(step, knots[0] / 2.0) == lp[0]
        # At or beyond the last knot the density is zero.
        assert step_logpdf_unnorm(step, knots[-1]) == -math.inf
        assert step_logpdf_unnorm(step, 2.0) == -math.inf
        # Left-closed pieces: value at a knot is that knot's plateau.
        j = knots.size // 2
        assert step_logpdf_unnorm(step, float(knots[j])) == lp[j]

    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_envelope_dominates(self, step, quad, u):
        # Below the first knot the envelope carries P(A_u_lo), which sits a
        # descent-search tolerance under the plateau value P(A_0) = 1.
        assert step_logpdf_unnorm(step, u) >= float(quad.log_prob_Au(u)) - 1e-8

    def test_rect_area_formula(self, step):
        kt = step.table
        p = np.exp(kt.log_probs)
        direct = float(np.sum((p[:-1] - p[1:]) * np.diff(kt.knots)))
        assert total_rect_area(kt) == pytest.approx(direct, rel=1e-9)
        assert math.exp(log_total_rect_area(kt)) == pytest.approx(direct, rel=1e-9)


class TestInsertKnot:
    @pytest.fixture()
    def step(self, quad, quad_window):
        u_lo, u_hi = quad_window
        return build_step(select_knots(quad, u_lo, u_hi, 8, "hybrid"))

    def test_insert_reduces_area(self, quad, step):
        knots = step.table.knots
        u_new = 0.5 * (knots[3] + knots[4])
        new_step, inserted = insert_knot(step, u_new, float(quad.log_prob_Au(u_new)))
        assert inserted
        assert new_step.table.knots.size == knots.size + 1
        assert total_rect_area(new_step.table) <= total_rect_area(step.table) + 1e-15

    def test_insert_outside_ignored(self, step):
        same, inserted = insert_knot(step, 1.5, -1.0)
        assert not inserted and same is step

    def test_insert_duplicate_ignored(self, step):
        u = float(step.table.knots[2])
        _, inserted = insert_knot(step, u, float(step.table.log_probs[2]))
        assert not inserted

    def test_insert_clamps_to_monotone(self, step):
        knots = step.table.knots
        u_new = 0.5 * (knots[2] + knots[3])
        new_step, inserted = insert_knot(step, u_new, 10.0)  # absurdly high value
        assert inserted
        assert np.all(np.diff(new_step.table.log_probs) <= 1e-15)


class TestKnotTableRows:
    def test_rows_align_with_areas(self, quad, quad_window):
        u_lo, u_hi = quad_window
        kt = select_knots(quad, u_lo, u_hi, 6, "arithmetic")
        rows = knot_table_rows(kt)
        assert len(rows) == kt.knots.size
        assert rows[0][3] == 0.0
        total = sum(r[3] for r in rows)
        assert total == pytest.approx(total_rect_area(kt), rel=1e-9)
