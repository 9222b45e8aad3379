from __future__ import annotations

import math
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stepdirect.stepfn
from stepdirect.car import (
    CarHyper,
    CarState,
    car_eigen_precompute,
    car_gibbs_run,
    car_synthetic,
    draw_rho_direct,
    lattice_adjacency,
    rho_family,
    rho_target,
)
from stepdirect.cmp import CmpParams, cmp_target
from stepdirect.errors import DomainError, ModeError
from stepdirect.rngstats import Rng
from stepdirect.sampler import GIBBS_STEP_CONFIG, DirectSampler, SamplerConfig, build_sampler, rejection_bound
from stepdirect.stepfn import (
    LEVEL_CELLS,
    LEVEL_GROWTH,
    LEVEL_SPAN,
    MODE_SLACK,
    SCALE_DROP,
    SCALE_PROBES,
    KnotTable,
    _level_points,
    build_step,
    equal_spaced_knots,
    find_u_hi,
    find_u_lo,
    insert_knot,
    knot_table_rows,
    level_envelope,
    log_total_rect_area,
    select_knots,
    step_cdf,
    step_logpdf_unnorm,
    step_quantile,
    step_quantile_many,
    total_rect_area,
)
from stepdirect.target import ENDPOINT_TOL, GeometricBase, TiltedGrid, UniformBase, WeightedTarget
from stepdirect.treg import (
    CubicBasis,
    NuTargetParams,
    TregData,
    TregHyper,
    draw_nu_direct,
    nu_target,
    treg_gibbs_run,
    treg_synthetic,
)
from tests.test_target import lopsided_log_w, quadratic_target


@pytest.fixture(scope="module")
def quad():
    return quadratic_target()


@pytest.fixture(scope="module")
def quad_window(quad):
    u_lo = find_u_lo(quad)
    return u_lo, find_u_hi(quad, u_lo)


def windows(n: int):
    """n nested placeholder windows, widest first."""
    half = np.linspace(0.5, 0.1, n)
    return 0.5 - half, 0.5 + half


class TestKnotTable:
    def test_validation(self):
        with pytest.raises(DomainError):
            KnotTable(np.array([0.1]), np.array([0.0]), *windows(1))
        with pytest.raises(DomainError):
            KnotTable(np.array([0.2, 0.1]), np.array([0.0, -1.0]), *windows(2))
        with pytest.raises(DomainError):
            KnotTable(np.array([0.1, 0.2]), np.array([0.0, -1.0]), *windows(3))

    @pytest.mark.parametrize("knots", [[0.0, np.nan, 1.0], [np.nan, 0.5, 1.0], [0.0, 0.5, np.nan]])
    def test_nan_knot_rejected(self, knots):
        with pytest.raises(DomainError, match="strictly ascending"):
            KnotTable(np.array(knots), np.array([0.0, -1.0, -2.0]), *windows(3))

    def test_log_probs_forced_nonincreasing(self):
        x1, x2 = windows(4)
        kt = KnotTable(np.array([0.1, 0.2, 0.3, 0.4]), np.array([-1.0, -0.5, -0.7, -2.0]), x1, x2)
        assert np.all(np.diff(kt.log_probs) <= 0)
        # The raised heights take the height and the window of knot 0.
        assert np.array_equal(kt.log_probs, [-1.0, -1.0, -1.0, -2.0])
        assert np.array_equal(kt.x1, x1[[0, 0, 0, 3]])
        assert np.array_equal(kt.x2, x2[[0, 0, 0, 3]])

    def test_nonincreasing_heights_kept_and_lows_capped(self):
        # Ties and a -inf tail are nonincreasing: every knot keeps its own
        # height and window, and the given lows are capped at the heights.
        u = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        lp = np.array([0.0, -1.0, -1.0, -3.0, -np.inf, -np.inf])
        x1, x2 = windows(6)
        lows = np.array([0.5, -2.0, -0.5, -np.inf, 1.0, 7.0])
        kt = KnotTable(u, lp, x1, x2, lows)
        assert np.array_equal(kt.log_probs, lp)
        assert np.array_equal(kt.x1, x1) and np.array_equal(kt.x2, x2)
        assert np.array_equal(kt.log_lows, [0.0, -2.0, -1.0, -np.inf, -np.inf, -np.inf])
        # Left out, each low is the next knot's height.
        kt = KnotTable(u, lp, x1, x2)
        assert np.array_equal(kt.log_lows, [-1.0, -1.0, -3.0, -np.inf, -np.inf, -np.inf])


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
        assert math.exp(quad.log_prob_Au(u_lo)) == 1.0
        assert math.exp(quad.log_prob_Au(u_lo * (1.0 + 1e-8))) < 1.0
        assert u_lo == pytest.approx(math.exp(-5.0 * 0.49), abs=1e-8)

    def test_find_u_hi_needs_mass_at_u_lo(self):
        # c is w at the top integer, so on integer support too A_u holds mass
        # at every u_lo below 1, and u_hi = 1 ends the window above it.
        target = cmp_target(CmpParams(2.0, 5.0))
        u_lo = 1.0 - 1e-12
        assert target.log_prob_Au(u_lo) > -math.inf
        assert find_u_hi(target, u_lo) == 1.0

    def test_find_u_hi_domain(self, quad):
        with pytest.raises(DomainError):
            find_u_hi(quad, 0.0)

    def test_discrete_target_window(self):
        # A_u is empty at u_hi and holds an integer just below it, checked
        # on the integers themselves.
        target = cmp_target(CmpParams(2.0, 2.0))
        u_lo = find_u_lo(target)
        u_hi = find_u_hi(target, u_lo)
        assert 0.0 < u_lo < u_hi <= 1.0
        log_w = target.log_w(np.arange(3 * math.ceil(target.x_mode) + 51, dtype=float))
        assert not np.any(log_w > math.log(u_hi) + target.log_c)
        assert np.any(log_w > math.log(u_hi * (1.0 - 1e-12)) + target.log_c)


class TestTopKnot:
    """On integer support A_u is empty at u_hi = 1, but the u = 1 knot
    carries the window of the integers that read at log c, ties kept, from
    one solve at the threshold just below log c: its height is the lower
    bound of P(A_u) on the last piece, and on the pieces adaptation splits
    from it."""

    # Each target with the window of its top integers.
    TARGETS = {
        "cmp(2, 0.05)": (lambda: cmp_target(CmpParams(2.0, 0.05)), (1048595.0, 1048597.0)),
        "cmp(2, 5)": (lambda: cmp_target(CmpParams(2.0, 5.0)), (0.0, 2.0)),
        # log w(10) reads 1 ulp below log w(11), so 11 is the one top integer.
        "cmp(10, 1)": (lambda: cmp_target(CmpParams(10.0, 1.0)), (10.0, 12.0)),
        # w(3) = w(4) exactly.
        "cmp(3, 1)": (lambda: cmp_target(CmpParams(3.0, 1.0)), (2.0, 5.0)),
        # log w(4) = log w(5) = -0.25.
        "tie at 4, 5": (
            lambda: WeightedTarget(
                log_w=lopsided_log_w(4.5, 1.0, 1.0), x_mode=4.5, log_c=0.0, base=GeometricBase(0.5)
            ),
            (3.0, 6.0),
        ),
    }

    @pytest.mark.parametrize("method", ["greedy", "equal"])
    @pytest.mark.parametrize("name", list(TARGETS))
    def test_u_hi_knot_holds_top_integers(self, name, method):
        make, window = self.TARGETS[name]
        target = make()
        assert target.interval_endpoints(np.nextafter(target.log_c, -np.inf)) == window
        top = np.arange(window[0] + 1.0, window[1])
        assert np.all(target.log_w(top) == target.log_c)
        assert np.all(target.log_w(np.array(window)) < target.log_c)
        sampler = DirectSampler(target, SamplerConfig(knot_method=method))
        table = sampler.step.table
        assert table.knots[-1] == 1.0 and math.isinf(target.log_prob_Au(1.0))
        assert (table.x1[-1], table.x2[-1]) == window
        log_top = target.base.log_prob(*window)
        assert table.log_probs[-1] == log_top and table.log_lows[-2] == log_top
        # The pieces split from the last one keep its finite lower bound
        # (on CMP(2, 0.05) and CMP(10, 1) rejections split it; elsewhere its
        # height is its low, and every candidate on it is accepted).
        u_last = table.knots[-2]
        sampler.sample(5_000, Rng(3))
        split = sampler.step.table
        assert np.all(np.isfinite(split.log_lows[:-1][split.knots[:-1] >= u_last]))


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
    def step(quad):
        return build_sampler(quad, SamplerConfig(n_init_knots=15))[0]

    def test_cdf_shape(self, step):
        assert step.grid_cdf[0] == 0.0
        assert step.grid_cdf[-1] == 1.0
        assert np.all(np.diff(step.grid_cdf) >= 0)

    @pytest.mark.parametrize("base", ["uniform", "geometric"])
    def test_zero_mass_tail_is_cut(self, base):
        # Heights only fall, so pieces of zero mass form a tail; the built
        # table ends at the first one's knot, and every candidate's window
        # holds support. Hand-made: the pieces from u = 0.9 on are empty.
        target = quadratic_target() if base == "uniform" else cmp_target(CmpParams(2.0, 0.5))
        knots = np.array([0.0, 0.5, 0.9, 1.0])
        x1, x2, log_p = target.superlevel(knots)
        empty = knots >= 0.9
        x1[empty] = x2[empty] = target.x_mode
        step = build_step(KnotTable(knots, np.where(empty, -np.inf, log_p), x1, x2))
        assert np.array_equal(step.table.knots, knots[:3])
        assert np.array_equal(step.table.log_probs[:2], log_p[:2])
        assert step.table.log_probs[-1] == -np.inf and step.grid_cdf[-1] == 1.0
        generator = Rng(4).generator
        v_u, v_x = generator.uniform(size=(2, 10_000))
        v_u[:2] = 0.0, np.nextafter(1.0, 0.0)
        xs = [step.propose(target.base, a, b)[1] for a, b in zip(v_u, v_x)]
        u, x = step.propose(target.base, v_u, v_x)
        assert np.array_equal(x, xs) and u.max() < 0.9
        assert np.isfinite(target.log_w(x)).all()

    def test_table_must_start_at_zero(self, quad, quad_window):
        # A table over the descent window alone leaves [0, u_lo) uncovered.
        with pytest.raises(DomainError, match="head knot at u = 0"):
            build_step(select_knots(quad, *quad_window, 15, "hybrid"))

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
        for phi in (math.nan, [math.nan, 0.5]):
            with pytest.raises(DomainError):
                step_quantile_many(step, phi)
        with pytest.raises(DomainError):
            step_quantile(step, math.nan)

    def test_logpdf_pieces(self, step):
        lp = step.table.log_probs
        knots = step.table.knots
        # The head piece [0, u_1) carries P(A_0); below u = 0 the density is zero.
        assert knots[0] == 0.0
        assert step_logpdf_unnorm(step, knots[1] / 2.0) == lp[0]
        assert step_logpdf_unnorm(step, -0.1) == -math.inf
        # At or beyond the last knot the density is zero.
        assert step_logpdf_unnorm(step, knots[-1]) == -math.inf
        assert step_logpdf_unnorm(step, 2.0) == -math.inf
        # Left-closed pieces: value at a knot is that knot's plateau.
        j = knots.size // 2
        assert step_logpdf_unnorm(step, float(knots[j])) == lp[j]

    def test_logpdf_nan_in_nan_out(self, step):
        assert math.isnan(step_logpdf_unnorm(step, math.nan))
        mid = float(step.table.knots[1]) / 2.0
        out = step_logpdf_unnorm(step, np.array([mid, math.nan, 2.0]))
        assert out[0] == step.table.log_probs[0]
        assert math.isnan(out[1])
        assert out[2] == -math.inf
        assert math.isnan(step_cdf(step, math.nan))

    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_envelope_dominates(self, step, quad, u):
        assert step_logpdf_unnorm(step, u) >= float(quad.log_prob_Au(u)) - 1e-12

    def test_rect_area_formula(self, step):
        kt = step.table
        p = np.exp(kt.log_probs)
        direct = float(np.sum((p[:-1] - p[1:]) * np.diff(kt.knots)))
        assert total_rect_area(kt) == pytest.approx(direct, rel=1e-9)
        assert math.exp(log_total_rect_area(kt)) == pytest.approx(direct, rel=1e-9)


class TestInsertKnot:
    @pytest.fixture()
    def step(self, quad):
        return build_sampler(quad, SamplerConfig(n_init_knots=8))[0]

    def test_insert_reduces_area(self, quad, step):
        knots = step.table.knots
        u_new = 0.5 * (knots[3] + knots[4])
        x1, x2, log_p = quad.superlevel(u_new)
        new_step, inserted = insert_knot(step, u_new, log_p, x1, x2)
        assert inserted == 1
        assert new_step.table.knots.size == knots.size + 1
        assert total_rect_area(new_step.table) <= total_rect_area(step.table) + 1e-15

    def test_insert_outside_ignored(self, step):
        same, inserted = insert_knot(step, 1.5, -1.0, 0.2, 0.4)
        assert inserted == 0 and same is step

    def test_insert_duplicate_ignored(self, step):
        t = step.table
        _, inserted = insert_knot(step, t.knots[2], t.log_probs[2], t.x1[2], t.x2[2])
        assert inserted == 0

    def test_insert_clamps_to_monotone(self, step):
        # A height above its left neighbour's is lowered to it, and the
        # piece takes that neighbour's window with it, so each height stays
        # the base mass of the window its piece draws from.
        t = step.table
        u_new = 0.5 * (t.knots[2] + t.knots[3])
        new_step, inserted = insert_knot(step, u_new, 10.0, 0.0, 1.0)  # absurdly high value
        assert inserted == 1
        new = new_step.table
        assert np.all(np.diff(new.log_probs) <= 0.0)
        assert (new.log_probs[3], new.x1[3], new.x2[3]) == (t.log_probs[2], t.x1[2], t.x2[2])

    def test_batch_inserts_once(self, quad, step):
        # Points are sorted into place, and repeats, existing knots and
        # points outside (u_0, u_N) are skipped.
        t = step.table
        mids = 0.5 * (t.knots[1:] + t.knots[:-1])
        u = np.concatenate((mids[::-1], mids[:2], t.knots[3:4], [1.5]))
        x1, x2, log_p = quad.superlevel(np.minimum(u, 1.0))
        new_step, inserted = insert_knot(step, u, log_p, x1, x2)
        assert inserted == mids.size
        ref = quad.superlevel(np.sort(np.concatenate((t.knots, mids))))
        new = new_step.table
        assert np.array_equal(new.knots, np.sort(np.concatenate((t.knots, mids))))
        for got, want in zip((new.x1, new.x2, new.log_probs), ref):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def lattice_spectrum(side: int) -> np.ndarray:
    a = lattice_adjacency(side)
    return car_eigen_precompute(a, a.sum(axis=1))


class TestLevelKnots:
    """Level envelopes, as cells and as knots at the cells' heights,
    checked against the solver."""

    EIG6 = lattice_spectrum(6)

    @staticmethod
    def check(target):
        level = level_envelope(target)
        table = level.table
        step = build_step(table)
        u = table.knots
        assert u[0] == 0.0 and u[-1] == 1.0
        assert np.array_equal(table.log_probs, target.base.log_prob(table.x1, table.x2))
        # Each stored window contains A_u at both ends of its piece: it
        # reaches at least to the solver's window, which lies within one
        # solver tolerance outside A_u. Each piece's lower bound lies under
        # P(A_u) there. log w is unimodal only up to its rounding, so pieces
        # that reach within 1e-9 of u = 1 are left out. Levels are compared
        # in u, so levels below the smallest normal double, which have no
        # relative precision, are left out too, and so is u = 0, where the
        # solver's A_0 is the whole support by convention while the cells
        # leave out those whose w / c underflows to 0.
        x1, x2, log_p = target.superlevel(u)
        normal = u >= sys.float_info.min
        j = np.flatnonzero(normal[1:] & (u[1:] < 1.0 - 1e-9))
        for piece, end in ((j[normal[j]], j[normal[j]]), (j, j + 1)):
            assert np.all(table.x1[piece] <= x1[end] + ENDPOINT_TOL * (1.0 + np.abs(x1[end])))
            assert np.all(table.x2[piece] >= x2[end] - ENDPOINT_TOL * (1.0 + np.abs(x2[end])))
            assert np.all(table.log_lows[piece] <= log_p[end] + 1e-8)
        grid = np.concatenate((np.linspace(0.0, 1.0, 2001)[1:], u[normal]))
        envelope = np.exp(step_logpdf_unnorm(step, grid))
        assert np.all(envelope >= np.exp(target.log_prob_Au(grid)) - 1e-9)
        # The quantile reads step_cdf's map backwards.
        phi = np.linspace(0.0, 1.0, 101)
        assert np.allclose(step_cdf(step, step_quantile_many(step, phi)), phi, rtol=0.0, atol=1e-12)
        # The cells ascend through x_mode over the support, and their CDF from 0 to 1.
        base, bounds, cdf = target.base, level.bounds, level.cdf
        assert bounds[0] == base.lo and bounds[-1] == base.hi and bounds[level.n_left] == target.x_mode
        assert np.all(np.diff(bounds) >= 0.0) and np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        # The cells and the table are one envelope: at every knot, the base
        # mass of the cells higher than it is the table's height, and the
        # two areas a agree.
        widths = np.diff(bounds) / (base.hi - base.lo)
        h = np.array([widths[level.heights > v].sum() for v in u])
        assert np.allclose(h, np.exp(table.log_probs), rtol=1e-12, atol=0.0)
        assert math.exp(level.log_a - step.log_a) == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        center=st.floats(min_value=0.0, max_value=1.0),
        scale=st.floats(min_value=0.5, max_value=5000.0),
    )
    def test_quadratic_tables(self, center, scale):
        self.check(quadratic_target(center, scale))

    @settings(max_examples=25, deadline=None)
    @given(a_const=st.floats(min_value=100.0, max_value=2000.0))
    def test_nu_tables(self, a_const):
        self.check(nu_target(NuTargetParams(n=200, A=a_const, a_nu=0.01, b_nu=200.0)))

    @settings(max_examples=50, deadline=None)
    @given(
        eta_a_eta=st.floats(min_value=-20.0, max_value=60.0),
        tau2=st.floats(min_value=0.1, max_value=5.0),
        tabulated=st.booleans(),
    )
    def test_rho_tables(self, eta_a_eta, tau2, tabulated):
        family = rho_family(self.EIG6) if tabulated else None
        self.check(rho_target(self.EIG6, eta_a_eta, tau2, family))

    def test_integer_base_rejected(self):
        with pytest.raises(DomainError, match="integer support"):
            build_sampler(cmp_target(CmpParams(2.0, 0.5)), SamplerConfig(knot_method="level"))

    def test_level_above_log_c_raises(self):
        # x_mode = 0.6 under a peak at 0.3: the table finds w above c.
        target = WeightedTarget(
            log_w=quadratic_target().log_w, x_mode=0.6, log_c=-5.0 * 0.09, base=UniformBase(0.0, 1.0)
        )
        with pytest.raises(ModeError, match="not the maximizer"):
            level_envelope(target)

    def test_nan_log_w_raises(self):
        target = quadratic_target()
        log_w = target.log_w
        target = replace(target, log_w=lambda x: np.where(np.asarray(x) > 0.9, np.nan, log_w(x)))
        with pytest.raises(DomainError, match="is NaN"):
            level_envelope(target)

    def test_grid_value_above_log_c_raises(self):
        # The check runs on the lower bounds read from the table: a table
        # raised by a constant, which keeps it concave, reads above log_c
        # next to the mode, and is caught without a log_w call.
        family = rho_family(self.EIG6)
        target = rho_target(self.EIG6, 20.0, 1.0, family)
        raised = partial(TiltedGrid(family.table.x, family.table.f + 1e-6).bounds, theta=10.0)
        lo, _ = raised(np.array([target.x_mode]))
        assert lo[0] > target.log_c + MODE_SLACK * (1.0 + abs(target.log_c))
        target.log_w_bounds, target.log_w = raised, None
        with pytest.raises(ModeError, match="not the maximizer"):
            level_envelope(target)


def reference_side_distances(scale: float, length: float) -> np.ndarray:
    """Grid distances from the mode on one side, ending at its length."""
    cell = scale / LEVEL_CELLS
    near = cell * np.arange(1, LEVEL_SPAN * LEVEL_CELLS + 1)
    rest = length - LEVEL_SPAN * scale
    n_far = 0
    if rest > 0:
        n_far = int(math.log1p(rest * (LEVEL_GROWTH - 1.0) / cell) / math.log(LEVEL_GROWTH)) + 1
    far = LEVEL_SPAN * scale + cell * np.cumsum(LEVEL_GROWTH ** np.arange(1, n_far + 1))
    d = np.concatenate((near, far))
    return np.append(d[d < length], length)


def reference_level_envelope(target: WeightedTarget) -> dict:
    """level_envelope's cells and knot table, built side by side outward
    from the mode: a running minimum per side for the cells, and one binary
    search per level, side and bound for the table. Log w is read as
    level_envelope reads it, a lower and an upper bound at each point (both
    log w where the target has no grid): the cells from the upper bounds,
    the hulls from the lower ones, and the knots from the levels of both.

    Returns the arrays named as LevelEnvelope and KnotTable store them.
    """
    base, m, log_c = target.base, target.x_mode, target.log_c
    ends = (base.lo, base.hi)
    lengths = (m - base.lo, base.hi - m)
    signs = (-1.0, 1.0)
    probe = np.array(lengths)[:, None] * 2.0 ** -np.arange(SCALE_PROBES)
    dropped = _level_points(target, m + np.array(signs)[:, None] * probe)[0] <= log_c - SCALE_DROP
    scales = [float(probe[i][dropped[i]].min()) if np.any(dropped[i]) else lengths[i] for i in range(2)]
    grids = [np.empty(0), np.empty(0)]
    for side in range(2):
        if lengths[side] > 0:
            d = reference_side_distances(scales[side], lengths[side])
            grids[side] = np.append(m + signs[side] * d[:-1], ends[side])
            grids[side] = np.minimum(grids[side], ends[side]) if side else np.maximum(grids[side], ends[side])
    n_left = grids[0].size
    x = np.concatenate(grids)
    lo, hi = _level_points(target, x)
    # Each side's points outward from the mode, where log w = log_c, with
    # both bounds, and the levels of its cells: the running minimum of each
    # bound on w / c out to each cell's inner end.
    sides = [
        (np.append(m, xs), np.append(log_c, lw), np.append(log_c, uw))
        for xs, lw, uw in zip(np.split(x, [n_left]), np.split(lo, [n_left]), np.split(hi, [n_left]))
    ]
    cells = [np.exp(np.minimum.accumulate(uw)[:-1] - log_c) for _, _, uw in sides]
    low_cells = [np.exp(np.minimum.accumulate(lw)[:-1] - log_c) for _, lw, _ in sides]
    bounds = np.concatenate((sides[0][0][::-1], sides[1][0][1:]))
    heights = np.concatenate((cells[0][::-1], cells[1]))
    cdf = np.append(0.0, np.cumsum(heights * np.diff(bounds)))
    levels = np.unique(np.concatenate(cells + low_cells))
    u = np.concatenate(([0.0], levels[(levels > 0.0) & (levels < 1.0)], [1.0]))
    window, hull = [], []
    for (xs, lw, _), h in zip(sides, cells):
        # The window ends at the first cell outward that is not above u.
        window.append(xs[np.searchsorted(-h, -u, side="left")])
        # The hull ends at the last point outward with a lower bound on w / c
        # at or above the next knot.
        reach = np.maximum.accumulate(np.exp(lw - log_c)[::-1])[::-1]
        hull.append(xs[np.searchsorted(-reach, -u[1:-1], side="right") - 1])
    lp = base.log_prob(window[0], window[1])
    lows = np.append(base.log_prob(hull[0], hull[1]), -np.inf)
    return {
        "bounds": bounds,
        "heights": heights,
        "cdf": cdf / cdf[-1],
        "knots": u,
        "log_probs": lp,
        "x1": window[0],
        "x2": window[1],
        "log_lows": np.append(np.minimum(lows, lp[:-1]), -np.inf),
    }


def wiggle_target(center: float, curvature: float, step: float, amplitude: float, period: float) -> WeightedTarget:
    """log w = -step k with k = round(curvature (x - center)^2 / step), on a
    Uniform(0, 1) base: plateaus of tied levels. On the even plateaus, the
    top one included, log w wiggles by amplitude (within MODE_SLACK), so it
    rises and falls along each side and reaches above log_c = 0."""

    def log_w(x):
        x = np.asarray(x, dtype=float)
        k = np.round(curvature * (x - center) ** 2 / step)
        return -step * k + np.where(k % 2 == 0, amplitude * np.cos(period * x), 0.0)

    return WeightedTarget(log_w=log_w, x_mode=center, log_c=0.0, base=UniformBase(0.0, 1.0), name="wiggle")


class TestLevelKnotsMatchReference:
    """level_envelope builds reference_level_envelope's cells and table, array for array."""

    SPECTRA = {side: lattice_spectrum(side) for side in (4, 6, 8, 12)}
    FAMILIES = {side: rho_family(eig) for side, eig in SPECTRA.items()}

    @staticmethod
    def check(target):
        envelope = level_envelope(target)
        ref = reference_level_envelope(target)
        for name in ("bounds", "heights", "cdf"):
            assert np.array_equal(getattr(envelope, name), ref[name]), name
        for name in ("knots", "log_probs", "x1", "x2", "log_lows"):
            assert np.array_equal(getattr(envelope.table, name), ref[name]), name

    @settings(max_examples=40, deadline=None)
    @given(center=st.floats(min_value=0.0, max_value=1.0), scale=st.floats(min_value=0.5, max_value=5000.0))
    @example(center=0.0, scale=5.0)
    @example(center=1.0, scale=5.0)
    def test_quadratic(self, center, scale):
        self.check(quadratic_target(center, scale))

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([5, 200, 1000]), excess=st.floats(min_value=0.0, max_value=10.0))
    @example(n=5, excess=0.0)
    @example(n=1000, excess=0.0)
    def test_nu(self, n, excess):
        target = nu_target(NuTargetParams(n=n, A=0.5 * n * (1.0 + excess), a_nu=0.01, b_nu=200.0))
        # A = n/2 puts the mode at b_nu, which leaves the right side empty.
        assert excess > 0.0 or target.x_mode == 200.0
        self.check(target)

    @settings(max_examples=40, deadline=None)
    @given(
        eta_a_eta=st.floats(min_value=-20.0, max_value=60.0),
        tau2=st.floats(min_value=0.1, max_value=5.0),
        tabulated=st.booleans(),
    )
    @example(eta_a_eta=-5.0, tau2=1.0, tabulated=True)
    @example(eta_a_eta=-5.0, tau2=1.0, tabulated=False)
    @example(eta_a_eta=0.0, tau2=1.0, tabulated=True)
    @example(eta_a_eta=0.0, tau2=1.0, tabulated=False)
    @pytest.mark.parametrize("side", [4, 6, 8, 12])
    def test_rho(self, side, eta_a_eta, tau2, tabulated):
        target = rho_target(self.SPECTRA[side], eta_a_eta, tau2, self.FAMILIES[side] if tabulated else None)
        # A drift at or below 0 puts the mode at rho = 0 exactly, since the
        # spectrum's trace is 0, which leaves the left side empty.
        assert eta_a_eta > 0.0 or target.x_mode == 0.0
        self.check(target)

    @settings(max_examples=40, deadline=None)
    @given(
        center=st.floats(min_value=0.0, max_value=1.0),
        curvature=st.floats(min_value=1.0, max_value=1000.0),
        step=st.sampled_from([0.05, 0.5, 2.0]),
        amplitude=st.floats(min_value=0.0, max_value=0.9 * MODE_SLACK),
        period=st.floats(min_value=1e2, max_value=1e5),
    )
    def test_wiggle(self, center, curvature, step, amplitude, period):
        self.check(wiggle_target(center, curvature, step, amplitude, period))

    def test_wiggle_has_ties_rises_and_exceeds_log_c(self):
        target = wiggle_target(0.3, 50.0, 0.5, 0.5 * MODE_SLACK, 1e4)
        lw = target.log_w(np.linspace(0.3, 1.0, 2001))
        assert np.unique(lw).size < lw.size
        assert np.any(np.diff(lw) > 0.0)
        assert lw.max() > target.log_c
        self.check(target)


class TestDeferredLows:
    """A level envelope builds its knot table, with the pieces' lower
    bounds, on the first read of ``table``, which only the rejection bound,
    the knot rows and adaptive insertion make."""

    @pytest.fixture(scope="class")
    def car6(self):
        return car_synthetic(6, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(70), n_rep=4)

    @staticmethod
    def level_targets(car6):
        # Plain targets that read a member's table, so that the sampler
        # builds level_envelope's cells, which the reference describes, not
        # the member's bucket cells.
        targets = []
        for member in (
            nu_target(NuTargetParams(n=200, A=150.0, a_nu=0.01, b_nu=200.0)),
            rho_target(car6.eigenvalues, 7.4, 1.0, car6.rho_family),
        ):
            targets.append(WeightedTarget(member.log_w, member.x_mode, member.log_c, member.base, member.name))
            targets[-1].log_w_bounds = member.log_w_bounds
        return targets + [quadratic_target(0.3, 50.0)]

    def test_gibbs_steps_and_chains_never_compute(self, monkeypatch, car6):
        def fail(envelope):
            raise AssertionError("a level envelope built its knot table")

        monkeypatch.setattr(stepdirect.stepfn.LevelEnvelope, "table", property(fail))
        draw_nu_direct(NuTargetParams(n=200, A=150.0, a_nu=0.01, b_nu=200.0), Rng(1))
        state = CarState(beta=np.zeros(2), eta=np.full(car6.k, 0.5), sigma2=0.5, tau2=1.0, rho=0.5)
        draw_rho_direct(car6, state, Rng(1))
        sim = treg_synthetic(200, Rng(1, 1))
        data = TregData(y=sim.y, X=CubicBasis(sim.r, 6).design(sim.r))
        treg_gibbs_run(data, TregHyper(), 20, 0, 1, "direct", Rng(1, 2))
        car_gibbs_run(car6, CarHyper(), 20, 0, 1, "direct", Rng(1, 3))

    def test_reads_match_reference(self, car6):
        # The table, the bound, the diagnostics and the rows are those of
        # reference_level_envelope's table over the envelope's own area a.
        for target in self.level_targets(car6):
            sampler = DirectSampler(target, GIBBS_STEP_CONFIG)
            ref = reference_level_envelope(target)
            table = KnotTable(*(ref[name] for name in ("knots", "log_probs", "x1", "x2", "log_lows")))
            assert np.array_equal(sampler.step.table.log_lows, ref["log_lows"])
            bound = min(1.0, math.exp(log_total_rect_area(table) - sampler.step.log_a))
            assert sampler.rejection_bound() == bound
            diag = sampler.diagnostics
            assert (diag.u_lo, diag.u_hi, diag.n_knots) == (table.knots[1], 1.0, table.knots.size)
            assert (diag.log_rect_area, diag.rejection_bound) == (log_total_rect_area(table), bound)
            assert knot_table_rows(sampler.step.table) == knot_table_rows(table)

    def test_reading_between_draws_changes_nothing(self, car6):
        for target in self.level_targets(car6):
            for adapt in (False, True):
                config = SamplerConfig(knot_method="level", adapt=adapt)
                quiet, read = DirectSampler(target, config), DirectSampler(target, config)
                rng_quiet, rng_read = Rng(5), Rng(5)
                for _ in range(30):
                    x = quiet.draw(rng_quiet).x
                    _ = read.diagnostics, read.rejection_bound(), read.step.table.log_lows
                    assert read.draw(rng_read).x == x
                assert rng_quiet.generator.bit_generator.state == rng_read.generator.bit_generator.state

    def test_adaptive_insertion_keeps_reference_lows(self, car6):
        # Each knot inserted into a level envelope's table keeps the
        # reference low of the piece it splits, capped at its own height.
        target = self.level_targets(car6)[0]
        ref = reference_level_envelope(target)
        knots, lows = ref["knots"], ref["log_lows"]
        sampler = DirectSampler(target, SamplerConfig(knot_method="level"))
        _, report = sampler.sample(3000, Rng(9))
        table = sampler.step.table
        assert report.knots_inserted > 0
        piece = np.searchsorted(knots, table.knots, side="right") - 1
        want = np.minimum(lows[np.minimum(piece, knots.size - 1)], table.log_probs)
        want[-1] = -np.inf
        assert np.array_equal(table.log_lows, want)


class TestKnotTableRows:
    def test_rows_align_with_areas(self, quad, quad_window):
        u_lo, u_hi = quad_window
        kt = select_knots(quad, u_lo, u_hi, 6, "arithmetic")
        rows = knot_table_rows(kt)
        assert len(rows) == kt.knots.size
        assert rows[0][3] == 0.0
        total = sum(r[3] for r in rows)
        assert total == pytest.approx(total_rect_area(kt), rel=1e-9)
