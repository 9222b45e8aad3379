from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from stepdirect.cmp import CmpParams, cmp_target
from stepdirect.errors import DomainError, EmptySetError
from stepdirect.rngstats import Rng
from stepdirect.target import GeometricBase, UniformBase, WeightedTarget, integer_window


def quadratic_target(center: float = 0.3, scale: float = 5.0) -> WeightedTarget:
    """w(x) = exp(-scale (x - center)^2) on a Uniform(0, 1) base."""
    return WeightedTarget(
        log_w=lambda x: -scale * (np.asarray(x, float) - center) ** 2,
        x_mode=center,
        log_c=0.0,
        base=UniformBase(0.0, 1.0),
        name="quadratic",
    )


def quadratic_prob_Au(u: float, center: float = 0.3, scale: float = 5.0) -> float:
    if u <= 0.0:
        return 1.0
    if u >= 1.0:
        return 0.0
    half = math.sqrt(-math.log(u) / scale)
    return max(0.0, min(1.0, center + half) - max(0.0, center - half))


class TestIntegerWindow:
    def test_interior(self):
        assert integer_window(0.5, 3.2) == (1.0, 3.0)

    def test_open_at_integers(self):
        # Integers exactly at the open endpoints are excluded.
        assert integer_window(1.0, 4.0) == (2.0, 3.0)

    def test_clip_to_nonnegative(self):
        assert integer_window(-7.3, 2.5) == (0.0, 2.0)

    def test_empty(self):
        lo, hi = integer_window(1.2, 1.8)
        assert lo > hi

    def test_infinite_top(self):
        assert integer_window(2.5, math.inf) == (3.0, math.inf)

    def test_reversed_rejected(self):
        with pytest.raises(DomainError):
            integer_window(2.0, 1.0)


class TestUniformBase:
    def test_interval_probability(self):
        base = UniformBase(0.0, 2.0)
        assert math.exp(base.log_prob(0.5, 1.5)) == pytest.approx(0.5)
        assert base.log_prob(1.0, 1.0) == -math.inf

    def test_truncated_draw_is_linear(self):
        base = UniformBase(0.0, 1.0)
        assert base.truncated_draw(0.2, 0.6, 0.5) == pytest.approx(0.4)

    def test_truncated_draw_on_empty_window_raises(self):
        with pytest.raises(EmptySetError, match="zero base mass"):
            UniformBase(0.0, 1.0).truncated_draw(np.array([0.2, 0.4]), np.array([0.6, 0.4]), 0.5)

    def test_rejects_empty_interval(self):
        with pytest.raises(DomainError):
            UniformBase(1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_infinite_end(self, lo, hi):
        # P(A_u) and the derived descent start need w at both ends.
        with pytest.raises(DomainError, match="finite"):
            UniformBase(lo, hi)


class TestGeometricBase:
    def test_survival_is_exact_linear(self):
        base = GeometricBase(0.25)
        # log P(X > x) = (x+1) log(1-p) exactly, even at extreme depths.
        assert base.log_sf(9) == pytest.approx(10 * math.log(0.75), rel=1e-15)
        assert base.log_sf(39_999) == pytest.approx(40_000 * math.log(0.75), rel=1e-15)

    def test_quantile_inverts_cdf(self):
        base = GeometricBase(0.3)
        ref = stats.geom(0.3, loc=-1)
        for phi in (0.01, 0.3, 0.5, 0.9, 0.999):
            x = base.quantile(phi)
            assert ref.cdf(x) >= phi
            assert x == 0 or ref.cdf(x - 1) < phi

    def test_quantile_rejects_boundary(self):
        with pytest.raises(DomainError):
            GeometricBase(0.3).quantile(1.0)

    def test_window_probability_matches_sum(self):
        base = GeometricBase(0.4)
        pmf = stats.geom(0.4, loc=-1).pmf(np.arange(0, 50))
        windows = [
            (2.5, 7.5, slice(3, 8)),
            (3.0, 8.0, slice(4, 8)),  # integer endpoints are excluded
            (-3.2, 4.0, slice(0, 4)),  # x1 < 0 clips to the support
            (-1.0, 0.5, slice(0, 1)),
        ]
        for x1, x2, inside in windows:
            assert math.exp(base.log_prob(x1, x2)) == pytest.approx(pmf[inside].sum(), rel=1e-12)
        assert base.log_prob(4.2, 4.8) == -math.inf

    def test_window_probability_vectorized_and_unbounded(self):
        base = GeometricBase(0.4)
        out = base.log_prob(np.array([-1.0, 2.5, 4.2]), np.array([math.inf, math.inf, 4.8]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(3 * math.log(0.6), rel=1e-15)
        assert out[2] == -math.inf

    def test_window_probability_survives_deep_tails(self):
        base = GeometricBase(0.5)
        # Window mass ~ 2^-10000: representable only on the log scale.
        out = base.log_prob(9_998, 10_001)
        assert out == pytest.approx(9_999 * math.log(0.5) + math.log(0.75), rel=1e-12)

    def test_truncated_draw_stays_inside(self):
        base = GeometricBase(0.2)
        v = Rng(0).generator.uniform(size=1000)
        draws = base.truncated_draw(np.full(1000, 2.0), np.full(1000, 10.0), v)
        assert draws.min() >= 3 and draws.max() <= 9

    def test_truncated_draw_matches_conditional_pmf(self):
        base = GeometricBase(0.35)
        v = Rng(1).generator.uniform(size=100_000)
        draws = base.truncated_draw(np.full(v.size, 1.5), np.full(v.size, 6.5), v)
        counts = np.bincount(draws.astype(int), minlength=7)[2:7]
        pmf = stats.geom(0.35, loc=-1).pmf(np.arange(2, 7))
        pmf = pmf / pmf.sum()
        tv = 0.5 * np.abs(counts / v.size - pmf).sum()
        assert tv < 0.01

    def test_truncated_draw_on_empty_window_raises(self):
        with pytest.raises(EmptySetError, match="no support points"):
            GeometricBase(0.3).truncated_draw(np.array([0.5, 4.0]), np.array([3.5, 5.0]), 0.5)

    def test_rejects_degenerate_rate(self):
        with pytest.raises(DomainError):
            GeometricBase(1.0)


class TestWeightedTargetContinuous:
    def test_prob_Au_matches_closed_form(self):
        target = quadratic_target()
        for u in (0.0, 1e-8, 0.01, 0.2, 0.5, 0.9, 0.999):
            assert math.exp(target.log_prob_Au(u)) == pytest.approx(
                quadratic_prob_Au(u), abs=1e-8
            )

    def test_prob_Au_vectorized(self):
        target = quadratic_target()
        u = np.array([0.1, 0.5, 0.9])
        out = np.exp(target.log_prob_Au(u))
        ref = [quadratic_prob_Au(v) for v in u]
        assert np.allclose(out, ref, atol=1e-8)

    def test_u_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            quadratic_target().log_prob_Au(1.5)

    def test_truncated_draws_land_in_superlevel_set(self):
        target = quadratic_target()
        u = 0.4
        draws = target.truncated_draw_many(np.full(500, u), Rng(2).generator.uniform(size=500))
        assert np.all(target.log_w(draws) > math.log(u) + target.log_c - 1e-9)

    def test_draw_at_top_is_empty(self):
        with pytest.raises(EmptySetError):
            quadratic_target().truncated_draw_many(np.array([1.0]), np.array([0.5]))

    @given(st.floats(min_value=1e-6, max_value=0.999))
    def test_prob_Au_nonincreasing(self, u):
        target = quadratic_target()
        assert target.log_prob_Au(u) <= target.log_prob_Au(u * 0.5) + 1e-12


class TestWeightedTargetDiscrete:
    def test_support_comes_from_base(self):
        target = cmp_target(CmpParams(2.0, 5.0))
        assert target.discrete and not quadratic_target().discrete
        # The full support {0, 1, ...} as open endpoints.
        assert target.interval_endpoints(-math.inf) == (-1.0, math.inf)

    def test_full_support_at_zero_threshold(self):
        # P(A_0) must include every support point, boundary x = 0 included.
        target = cmp_target(CmpParams(2.0, 5.0))
        assert target.log_prob_Au(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_point_sampled(self):
        target = cmp_target(CmpParams(2.0, 5.0))
        draws = target.truncated_draw_many(
            np.full(2000, 1e-6), Rng(3).generator.uniform(size=2000)
        )
        assert 0.0 in draws

    def test_window_shrinks_to_mode(self):
        target = cmp_target(CmpParams(2.0, 2.0))
        thr_hi = target.log_c - 1e-9
        x1, x2 = target.interval_endpoints(thr_hi)
        assert x2 - x1 < 2.0
        assert x1 <= target.x_mode <= x2

    def test_draws_match_support(self):
        target = cmp_target(CmpParams(2.0, 0.5))
        draws = target.truncated_draw_many(
            np.full(1000, 0.3), Rng(4).generator.uniform(size=1000)
        )
        assert np.all(draws == np.floor(draws))
        assert np.all(target.log_w(draws) > math.log(0.3) + target.log_c)


def lopsided_log_w(mode: float, left: float, right: float):
    """log w = -left (x - mode)^2 below the mode, -right (x - mode)^2 above."""

    def log_w(x):
        d = np.asarray(x, float) - mode
        return -np.where(d < 0.0, left, right) * d * d

    return log_w


class TestEndpointSolver:
    """Both sides of the mode are solved in one interval_endpoints call."""

    def test_continuous_crossings_on_both_sides(self):
        target = WeightedTarget(
            log_w=lopsided_log_w(0.3, 50.0, 2.0),
            x_mode=0.3,
            log_c=0.0,
            base=UniformBase(0.0, 1.0),
        )
        # log w(0) = -4.5 and log w(1) = -0.98, so -2 and -6 reach the
        # right end and -6 also the left end; 0 leaves an empty set.
        thr = np.array([-0.5, -2.0, -6.0, -np.inf, 0.0])
        x1, x2 = target.interval_endpoints(thr)
        assert x1 == pytest.approx([0.3 - 0.1, 0.3 - 0.2, 0.0, 0.0, 0.3], abs=1e-9)
        assert x2 == pytest.approx([0.3 + 0.5, 1.0, 1.0, 1.0, 0.3], abs=1e-9)

    def test_integer_support_with_infinite_upper_end(self):
        target = WeightedTarget(
            log_w=lopsided_log_w(4.5, 1.0, 0.25),
            x_mode=4.5,
            log_c=0.0,
            base=GeometricBase(0.5),
        )
        # At -25 the set contains x = 0 (log w(0) = -20.25), so the left
        # endpoint moves one unit past it; the right crossing at 14.5 lies
        # beyond the first doubling bracket at 12.5.
        thr = np.array([-1.0, -25.0])
        x1, x2 = target.interval_endpoints(thr)
        assert x1 == pytest.approx([3.5, -1.0], abs=1e-9)
        assert x2 == pytest.approx([6.5, 14.5], abs=1e-9)
        assert target.interval_endpoints(-1.0) == pytest.approx((3.5, 6.5), abs=1e-9)

