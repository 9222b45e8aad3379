from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import digamma

import stepdirect.target
from stepdirect.car import RHO_MAX, rho_grid_table, rho_target
from stepdirect.cmp import MAX_LOG_MODE, CmpDecomposition, CmpParams, _drift, cmp_mode, cmp_target
from stepdirect.errors import DomainError, EmptySetError, NonConvergenceError
from stepdirect.rngstats import Rng
from stepdirect.sampler import DirectSampler, SamplerConfig
from stepdirect.target import (
    GeometricBase,
    UniformBase,
    WeightedTarget,
    concave_mode,
    integer_window,
)
from stepdirect.treg import NuTargetParams, geweke_nu_star, nu_target
from tests.test_acceptance import _registered_targets


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

    def test_nan_u_rejected(self):
        # NaN must not pass for u = 0, whose set is the full support.
        with pytest.raises(DomainError):
            quadratic_target().log_prob_Au(math.nan)
        with pytest.raises(DomainError):
            cmp_target(CmpParams(2.0, 0.5)).superlevel(np.array([0.5, math.nan]))
        with pytest.raises(DomainError):
            quadratic_target().truncated_draw_many(np.array([math.nan]), np.array([0.5]))

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
        # x_mode is the integer where w is largest, so just below log_c the
        # window holds it alone, and at log_c it collapses onto it.
        target = cmp_target(CmpParams(2.0, 2.0))
        m = target.x_mode
        assert target.interval_endpoints(target.log_c - 1e-9) == (m - 1.0, m + 1.0)
        assert target.interval_endpoints(target.log_c) == (m, m)

    def test_mode_without_a_finite_weight_raises(self):
        # c is read at the integers next to x_mode, so one must read finite.
        for value in (-np.inf, np.nan):
            with pytest.raises(DomainError, match="not finite at either integer next to x_mode = 2.5"):
                WeightedTarget(
                    log_w=lambda x, value=value: np.full(np.shape(x), value),
                    x_mode=2.5,
                    log_c=0.0,
                    base=GeometricBase(0.5),
                )

    def test_draws_match_support(self):
        target = cmp_target(CmpParams(2.0, 0.5))
        draws = target.truncated_draw_many(
            np.full(1000, 0.3), Rng(4).generator.uniform(size=1000)
        )
        assert np.all(draws == np.floor(draws))
        assert np.all(target.log_w(draws) > math.log(0.3) + target.log_c)


# Integers either side of each window end that check_integer_ends reads.
INTEGER_BAND = 64


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
        # The ends are integers: the continuous crossings of -1 are 3.5 and
        # 6.5, so the window holds 4, 5, 6. At -25 the set contains x = 0
        # (log w(0) = -20.25), so the left end is the open end -1; the right
        # crossing at 14.5 lies beyond the first doubling bracket at 12.5.
        thr = np.array([-1.0, -25.0])
        x1, x2 = target.interval_endpoints(thr)
        assert np.array_equal(x1, [3.0, -1.0]) and np.array_equal(x2, [7.0, 15.0])
        assert target.interval_endpoints(-1.0) == (3.0, 7.0)
        assert [integer_window(x1, x2)[i].tolist() for i in (0, 1)] == [[4.0, 0.0], [6.0, 14.0]]

    def test_doubling_that_never_brackets_raises(self):
        # log w falls by 1e-250 per unit, so the doubled bracket toward the
        # infinite end stays above the threshold until the doubling cap.
        target = WeightedTarget(
            log_w=lambda x: -1e-250 * np.abs(np.asarray(x, float) - 4.5),
            x_mode=4.5,
            log_c=0.0,
            base=GeometricBase(0.5),
        )
        with pytest.raises(DomainError, match="failed to bracket the right superlevel endpoint"):
            target.interval_endpoints(np.array([-1.0, -2.0]))

    def test_integer_bracket_left_too_wide_raises(self):
        # A bracket that still holds more integers than one read covers
        # (past the solver's step cap) is refused, not cut short.
        with pytest.raises(NonConvergenceError, match="hold up to 100 integers"):
            stepdirect.target._integer_crossing(lambda x: -x, np.array([-1.0]), np.array([100.5]), np.array([0.5]))


def reference_crossing(log_w, thr, outside, inside, *_known_log_w):
    """200 halvings of every bracket, with no early stop."""
    out_a = np.broadcast_to(np.asarray(outside, dtype=float), thr.shape)
    in_a = np.broadcast_to(np.asarray(inside, dtype=float), thr.shape)
    for _ in range(200):
        mid = 0.5 * (out_a + in_a)
        above = log_w(mid) > thr
        in_a = np.where(above, mid, in_a)
        out_a = np.where(above, out_a, mid)
    return 0.5 * (out_a + in_a)


class TestSuperlevelSolve:
    """One endpoint solve per u, against a reference bisection."""

    U_GRID = np.linspace(0.0, 1.0, 3001)

    def reference_window(self, target, u, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(stepdirect.target, "_bisect_crossing", reference_crossing)
            return target.superlevel(u)[:2]

    def test_wide_mode_needs_few_log_w_calls(self):
        # The mode of CMP(2, 0.05) is about 1.05e6, where adjacent doubles
        # lie ~1.2e-10 apart: a bisection to an absolute width of 1e-10
        # runs to a 200-step cap on each side, 402 log_w calls in all.
        target = cmp_target(CmpParams(2.0, 0.05))
        assert target.x_mode > 1e6
        calls = []
        log_w = target.log_w
        target.log_w = lambda x: calls.append(np.size(x)) or log_w(x)
        thr = np.log(np.linspace(1e-10, 1.0, 201)) + target.log_c
        target.interval_endpoints(thr)
        assert len(calls) <= 80

    def test_both_sides_share_one_crossing_loop(self, monkeypatch):
        # The two sides of the mode are bracketed together and bisected in
        # one loop, so the 201 levels cost one set of loop iterations.
        target = cmp_target(CmpParams(2.0, 0.05))
        loops = []
        crossing = stepdirect.target._bisect_crossing
        monkeypatch.setattr(
            stepdirect.target, "_bisect_crossing", lambda *args: loops.append(args) or crossing(*args)
        )
        calls = []
        log_w = target.log_w
        target.log_w = lambda x: calls.append(np.size(x)) or log_w(x)
        thr = np.log(np.linspace(1e-10, 1.0, 201)) + target.log_c
        target.interval_endpoints(thr)
        assert len(loops) == 1
        assert len(calls) <= 30

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.floats(min_value=0.05, max_value=0.95),
        left=st.floats(min_value=0.0, max_value=3.0),
        right=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @pytest.mark.parametrize("discrete", [False, True])
    def test_mixed_starts_match_reference(self, discrete, mode, left, right, seed):
        # Curvatures 10^left, 10^right on Uniform(0, 1); on the geometric
        # base, whose upper end is infinite, the mode scales to 60 mode and
        # the curvatures to 10^-left, 10^-right.
        if discrete:
            mode, left, right, base = 60.0 * mode, 10.0**-left, 10.0**-right, GeometricBase(0.5)
        else:
            left, right, base = 10.0**left, 10.0**right, UniformBase(0.0, 1.0)
        target = WeightedTarget(
            log_w=lopsided_log_w(mode, left, right), x_mode=mode, log_c=0.0, base=base
        )
        gen = np.random.default_rng(seed)
        thr = -(10.0 ** gen.uniform(-3.0, 3.0, size=50))
        # A random subset of entries on each side starts from a point past
        # its crossing; the rest start from the support end.
        given_start = gen.uniform(size=(2, thr.size)) < 0.5
        gap = gen.uniform(0.01, 2.0, size=(2, thr.size))
        half = np.sqrt(-thr / np.array([[left], [right]]))
        past = mode + np.array([[-1.0], [1.0]]) * half * (1.0 + gap)
        starts = np.where(given_start, past, [[base.lo], [base.hi]])
        new = target.interval_endpoints(thr, tuple(starts))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(stepdirect.target, "_bisect_crossing", reference_crossing)
            ref = target.interval_endpoints(thr)
        if discrete:
            lo, hi = integer_window(*new)
            lo_ref, hi_ref = integer_window(*ref)
            assert np.array_equal(lo, lo_ref) and np.array_equal(hi, hi_ref)
        else:
            for x, x_ref in zip(new, ref):
                assert np.all(np.abs(x - x_ref) <= 1e-9 * (1.0 + np.abs(x_ref)))

    def test_stored_window_starts_the_solve(self):
        # Each knot's stored window brackets A_u for every u on its piece,
        # so an insertion at a piece's midpoint starts there instead of at
        # the support ends (and the doubling toward the infinite one).
        target = cmp_target(CmpParams(2.0, 0.05))
        table = DirectSampler(target, SamplerConfig(n_init_knots=20)).step.table
        u = 0.5 * (table.knots[1:-1] + table.knots[2:])
        outside = (table.x1[1:-1], table.x2[1:-1])
        assert np.all((outside[0] > 0.0) & np.isfinite(outside[1]))
        calls = []
        log_w = target.log_w
        target.log_w = lambda x: calls.append(np.size(x)) or log_w(x)
        scratch = target.superlevel(u)
        n_scratch = len(calls)
        stored = target.superlevel(u, outside)
        assert len(calls) - n_scratch < n_scratch
        # Both solves end at the same integers, and so give the same windows.
        for x, x_ref in zip(stored[:2], scratch[:2]):
            assert np.array_equal(x, np.floor(x)) and np.array_equal(x, x_ref)
        for end, end_ref in zip(integer_window(*stored[:2]), integer_window(*scratch[:2])):
            assert np.array_equal(end, end_ref)

    @pytest.mark.parametrize("name", ["nu A=120.0", "nu A=400.0", "rho drift=1.0", "rho drift=12.0"])
    def test_continuous_endpoints_match_reference(self, name, monkeypatch):
        target = {n: t for n, t, _cfg in _registered_targets()}[name]
        ref = self.reference_window(target, self.U_GRID, monkeypatch)
        new = target.superlevel(self.U_GRID)[:2]
        for x, x_ref in zip(new, ref):
            assert np.all(np.abs(x - x_ref) <= 1e-9 * (1.0 + np.abs(x_ref)))

    @pytest.mark.parametrize("nu", [0.05, 0.5, 5.0])
    def test_cmp_integer_windows_match_reference(self, nu, monkeypatch):
        target = cmp_target(CmpParams(2.0, nu))
        ref = integer_window(*self.reference_window(target, self.U_GRID, monkeypatch))
        new = integer_window(*target.superlevel(self.U_GRID)[:2])
        assert np.array_equal(new[0], ref[0]) and np.array_equal(new[1], ref[1])

    @staticmethod
    def check_integer_ends(target, seed):
        """At 40 random u, half of each side started from the stored window
        of a smaller u: each interior end is an integer with log w at or
        below the threshold, and the integers inside the window are those
        that read above it, by enumeration within INTEGER_BAND of each end
        and at 512 points across the window."""
        gen = np.random.default_rng(seed)
        u = 10.0 ** gen.uniform(-12.0, 0.0, size=40)
        thr = np.log(u) + target.log_c
        stored_x1, stored_x2, _ = target.superlevel(u * gen.uniform(size=u.size))
        stored = gen.uniform(size=(2, u.size)) < 0.5
        starts = (np.where(stored[0], stored_x1, target.base.lo), np.where(stored[1], stored_x2, target.base.hi))
        x1, x2, log_p = target.superlevel(u, starts)
        for a, b, t in zip(x1, x2, thr):
            ends = np.array([e for e in (a, b) if target.base.lo <= e < math.inf])
            assert np.array_equal(ends, np.floor(ends))
            assert np.all(target.log_w(ends) <= t)
            ks = np.concatenate((
                np.arange(a - INTEGER_BAND, a + INTEGER_BAND + 1),
                np.arange(b - INTEGER_BAND, b + INTEGER_BAND + 1),
                np.round(np.linspace(a, b, 512)),
            ))
            ks = ks[ks >= 0.0]
            assert np.array_equal((ks > a) & (ks < b), target.log_w(ks) > t)
        assert np.array_equal(log_p, target.base.log_prob(x1, x2))

    # Modes up to e^16 (about 8.9e6). Further out, cmp_log_weight's rounding
    # (tens of ulps of log_c) can exceed the change of log w between an
    # integer and a point a fraction of a unit past it, so a bracket's
    # non-integer inside point can read above where the integer next to it
    # reads below (at mode 8.3e7 a window held an integer reading 3.7e-8
    # below its threshold).
    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(min_value=0.05, max_value=50.0),
        nu=st.floats(min_value=0.02, max_value=10.0),
        decomp=st.sampled_from(list(CmpDecomposition)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_cmp_integer_ends_match_enumeration(self, lam, nu, decomp, seed):
        params = CmpParams(lam, nu)
        assume(_drift(params, decomp) / nu <= 16.0)
        self.check_integer_ends(cmp_target(params, decomp), seed)

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.floats(min_value=0.0, max_value=60.0),
        left=st.floats(min_value=0.0, max_value=3.0),
        right=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_lopsided_integer_ends_match_enumeration(self, mode, left, right, seed):
        # Curvatures 10^-left and 10^-right on the geometric base.
        target = WeightedTarget(
            log_w=lopsided_log_w(mode, 10.0**-left, 10.0**-right), x_mode=mode, log_c=0.0, base=GeometricBase(0.5)
        )
        self.check_integer_ends(target, seed)

    @given(
        lam=st.floats(min_value=1.0, max_value=5.0),
        nu=st.floats(min_value=0.1, max_value=5.0),
        u=st.floats(min_value=1e-12, max_value=0.999),
        v=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_window_probability_and_draw_agree(self, lam, nu, u, v):
        for target in (cmp_target(CmpParams(lam, nu)), quadratic_target(center=lam / 5.0 - 0.1)):
            x1, x2, log_p = target.superlevel(u)
            assert log_p == target.log_prob_Au(u)
            if math.isinf(log_p):  # no integer strictly inside (x1, x2)
                with pytest.raises(EmptySetError):
                    target.truncated_draw_many(np.array([u]), np.array([v]))
                continue
            x = target.truncated_draw_many(np.array([u]), np.array([v]))[0]
            if target.discrete:
                assert x1 < x < x2
            else:
                assert x1 <= x <= x2


def reference_mode(deriv, lo: float, hi: float) -> float:
    """Mode of a log weight with decreasing derivative: a boundary, or the
    midpoint of a bisection of the derivative's sign change to a width of
    1e-13 (1 + |lower end|)."""
    if deriv(lo) <= 0.0:
        return lo
    if deriv(hi) >= 0.0:
        return hi
    while (hi - lo) / (1.0 + abs(lo)) > 1e-13:
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def assert_modes_agree(mode: float, ref: float) -> None:
    assert abs(mode - ref) <= 1e-12 * (1.0 + abs(ref))


class TestConcaveMode:
    """The bracketed Newton modes of rho_target, nu_target, cmp_mode and
    geweke_nu_star against a reference bisection."""

    @staticmethod
    def rho_deriv(lam, drift):
        return lambda r: float(-0.5 * np.sum(lam / (1.0 - r * lam)) + drift)

    @staticmethod
    def nu_deriv(n, a_const):
        return lambda v: 0.5 * n * (math.log(v / 2.0) - float(digamma(v / 2.0))) + 0.5 * n - a_const

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.lists(st.floats(min_value=-1.0, max_value=0.999), min_size=1, max_size=40),
        drift=st.floats(min_value=-50.0, max_value=2000.0),
        tabulated=st.booleans(),
    )
    def test_rho_modes(self, lam, drift, tabulated):
        # The spectrum of D^-1 A has largest eigenvalue 1.
        lam = np.sort(np.append(lam, 1.0))[::-1]
        table = rho_grid_table(lam) if tabulated else None
        target = rho_target(lam, 2.0 * drift, 1.0, table)
        assert_modes_agree(target.x_mode, reference_mode(self.rho_deriv(lam, drift), 0.0, RHO_MAX))

    def test_rho_boundary_modes(self):
        lam = np.array([1.0, 0.5, -0.5, -1.0])
        for drift, mode in ((-1.0, 0.0), (0.0, 0.0), (1e13, RHO_MAX)):
            for table in (None, rho_grid_table(lam)):
                assert rho_target(lam, 2.0 * drift, 1.0, table).x_mode == mode
                assert reference_mode(self.rho_deriv(lam, drift), 0.0, RHO_MAX) == mode

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1000),
        log_ratio=st.floats(min_value=0.0, max_value=6.0),
        a_nu=st.floats(min_value=1e-3, max_value=1.0),
        b_nu=st.floats(min_value=2.0, max_value=500.0),
    )
    def test_nu_modes(self, n, log_ratio, a_nu, b_nu):
        a_const = 0.5 * n * math.exp(log_ratio)
        target = nu_target(NuTargetParams(n=n, A=a_const, a_nu=a_nu, b_nu=b_nu))
        assert_modes_agree(target.x_mode, reference_mode(self.nu_deriv(n, a_const), a_nu, b_nu))

    def test_nu_boundary_modes(self):
        # A = n/2 keeps the derivative positive; a large A makes it negative at a_nu.
        for a_const, mode in ((100.0, 200.0), (1e6, 0.01)):
            target = nu_target(NuTargetParams(n=200, A=a_const, a_nu=0.01, b_nu=200.0))
            assert target.x_mode == mode
            assert reference_mode(self.nu_deriv(200, a_const), 0.01, 200.0) == mode

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.floats(min_value=0.05, max_value=50.0),
        nu=st.floats(min_value=0.02, max_value=10.0),
        decomp=st.sampled_from(list(CmpDecomposition)),
    )
    def test_cmp_modes(self, lam, nu, decomp):
        # Modes past 2^53 raise; the reference searches up to there.
        params = CmpParams(lam, nu)
        drift = _drift(params, decomp)
        if drift / nu > MAX_LOG_MODE:
            with pytest.raises(DomainError, match=r"2\^53"):
                cmp_mode(params, decomp)
            return
        ref = reference_mode(lambda x: drift - nu * float(digamma(x + 1.0)), 0.0, 2.0**53)
        assert_modes_agree(cmp_mode(params, decomp)[0], ref)

    @staticmethod
    def geweke_rate(n, a_const):
        return lambda v: 0.5 * n * (math.log(v / 2.0) + 1.0 - float(digamma(v / 2.0))) + 1.0 / v - a_const

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1000),
        excess=st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=2000.0)),
        b_nu=st.floats(min_value=2.0, max_value=500.0),
    )
    def test_geweke_roots(self, n, excess, b_nu):
        # A = n/2 + excess; at A = n/2 the rate has no root and b_nu is used.
        p = NuTargetParams(n=n, A=0.5 * n + excess, a_nu=0.01, b_nu=b_nu)
        nu_star, found = geweke_nu_star(p)
        if excess == 0.0:
            assert (nu_star, found) == (b_nu, False)
            return
        assert found
        ref = reference_mode(self.geweke_rate(n, p.A), 1e-9, 1e6)
        assert (0.5 * n + 1.0) / excess <= ref <= (n + 1.0) / excess
        assert_modes_agree(nu_star, ref)

    def test_quadratic_from_any_start(self):
        # log w = -(x - 0.3)^2: Newton lands on the root from either side,
        # and starts outside [lo, hi] are clamped into it.
        def slope(x):
            return -2.0 * (x - 0.3), -2.0

        for x0 in (None, -5.0, 0.0, 0.29, 0.9, 7.0):
            assert concave_mode(slope, 0.0, 1.0, x0) == pytest.approx(0.3, abs=1e-15)

    def test_nan_slope_raises(self):
        with pytest.raises(DomainError, match="no finite slope"):
            concave_mode(lambda x: (1.0 if x == 0.0 else (-1.0 if x == 1.0 else math.nan), -1.0), 0.0, 1.0)
