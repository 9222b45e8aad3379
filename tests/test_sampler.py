from __future__ import annotations

import cProfile
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import stepdirect.cmp
import stepdirect.sampler
import stepdirect.search
import stepdirect.stepfn
import stepdirect.treg
from stepdirect.car import (
    CarState,
    car_eigen_precompute,
    car_synthetic,
    draw_rho_direct,
    lattice_adjacency,
    rho_target,
)
from stepdirect.cmp import CmpParams, cmp_pmf_oracle, cmp_target
from stepdirect.errors import DegenerateTargetError, DomainError, SamplerStallError
from stepdirect.logspace import log_sum_exp
from stepdirect.rngstats import Rng
from stepdirect.sampler import (
    GIBBS_STEP_CONFIG,
    DirectSampler,
    SamplerConfig,
    build_envelope,
    build_sampler,
    rejection_bound,
)
from stepdirect.stepfn import DESCENT_TOL, find_u_hi, find_u_lo, step_logpdf_unnorm
from stepdirect.target import GeometricBase, UniformBase, WeightedTarget, integer_window
from stepdirect.treg import (
    NuTargetParams,
    draw_nu_direct,
    geweke_nu_star,
    geweke_sample_many,
    nu_target,
)
from tests.test_acceptance import _registered_targets
from tests.test_target import lopsided_log_w, quadratic_target


def continuous_targets():
    a = lattice_adjacency(6)
    eig = car_eigen_precompute(a, a.sum(axis=1))
    return [
        quadratic_target(),
        nu_target(NuTargetParams(n=200, A=101.0, a_nu=0.01, b_nu=200.0)),
        nu_target(NuTargetParams(n=200, A=400.0, a_nu=0.01, b_nu=200.0)),
        rho_target(eig, eta_a_eta=3.0, tau2=2.0),
    ]


class TestSamplerConfig:
    def test_defaults_valid(self):
        cfg = SamplerConfig()
        assert cfg.adapt and cfg.knot_method == "greedy"

    def test_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(n_init_knots=0)
        with pytest.raises(DomainError):
            SamplerConfig(knot_method="random")

    def test_knot_rule_validated_up_front(self):
        # Checked at construction, not after a build, and whatever the
        # knot method.
        with pytest.raises(DomainError):
            SamplerConfig(midpoint_kind="cubic")
        with pytest.raises(DomainError):
            SamplerConfig(midpoint_kind="cubic", knot_method="equal")
        for omega in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                SamplerConfig(omega=omega)


class TestBuildSampler:
    def test_head_knot_at_zero(self):
        step, diag = build_sampler(quadratic_target())
        assert step.table.knots[0] == 0.0
        assert step.table.log_probs[0] == pytest.approx(0.0, abs=1e-12)
        assert diag.n_knots == step.table.knots.size

    def test_envelope_dominates_everywhere(self):
        target = quadratic_target()
        step, _ = build_sampler(target)
        u = Rng(0).generator.uniform(size=1000)
        log_h = np.array([step_logpdf_unnorm(step, v) for v in u])
        log_p = np.asarray(target.log_prob_Au(u))
        assert np.all(log_h >= log_p - 1e-12)

    @pytest.mark.parametrize("target", continuous_targets(), ids=lambda t: t.name)
    def test_continuous_base_window_ends_at_one(self, target):
        # The u_hi the search would find is exactly 1 on a continuous base.
        _step, diag = build_sampler(target)
        assert diag.u_hi == 1.0 == find_u_hi(target, find_u_lo(target))

    @pytest.mark.parametrize("target", continuous_targets(), ids=lambda t: t.name)
    def test_level_build_makes_no_solve(self, target):
        # A Gibbs-config build calls log_w twice, for the scale probe and
        # the table, or not at all where the target reads its grid (the nu
        # and rho targets), and solves no endpoint, the head knot included.
        calls, solves = [], []
        log_w, endpoints = target.log_w, target.interval_endpoints
        target.log_w = lambda x: calls.append(np.size(x)) or log_w(x)
        target.interval_endpoints = lambda *args: solves.append(args) or endpoints(*args)
        build_sampler(target, GIBBS_STEP_CONFIG)
        assert len(calls) == (2 if target.grid is None else 0) and solves == []

    @pytest.mark.parametrize("name", ["rho drift=1.0", "rho drift=12.0", "nu A=120.0", "nu A=400.0"])
    def test_gibbs_configs_start_at_descent_tol(self, name, monkeypatch):
        # The Gibbs config uses level knots, whose u_lo is the smallest
        # positive cell level, with no DESCENT_TOL floor: at or above the
        # smallest positive tabulated level w(x_i) / c, and at or below the
        # smallest positive cell height. The targets read their grids, whose
        # lower bounds give levels too, as a cell's height is the lowest
        # upper bound from the mode out to its inner end. On the nu
        # targets it lies far below that floor; on the rho targets w(1) = 0
        # gives no knot, and the next level is far above it.
        target, cfg = {n: (t, c) for n, t, c in _registered_targets()}[name]
        assert cfg == GIBBS_STEP_CONFIG
        tables = []
        level_points = stepdirect.stepfn._level_points

        def recorded(target, x):
            tables.append(level_points(target, x))
            return tables[-1]

        monkeypatch.setattr(stepdirect.stepfn, "_level_points", recorded)
        step, diag = build_sampler(target, cfg)
        levels = np.exp(tables[-1][0] - target.log_c)
        assert levels[levels > 0.0].min() <= diag.u_lo <= step.heights[step.heights > 0.0].min()
        assert (diag.u_lo < DESCENT_TOL) == name.startswith("nu")

    def test_equal_integer_build_solves_three_times(self):
        # The descent window is closed form on integer support too: one
        # solve for the N + 1 equal knots, one for the window of the u = 1
        # knot (the integers that read at log c) and one for the head knot.
        target = cmp_target(CmpParams(2.0, 0.5))
        solves = []
        endpoints = target.interval_endpoints
        target.interval_endpoints = lambda thr, *rest: solves.append(np.size(thr)) or endpoints(thr, *rest)
        build_sampler(target, SamplerConfig(n_init_knots=12, knot_method="equal"))
        assert solves == [13, 1, 1]

    def test_no_bisection_left(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("bisect was called")

        for module in (stepdirect.search, stepdirect.cmp, stepdirect.treg, stepdirect.stepfn):
            monkeypatch.setattr(module, "bisect", refuse)
        DirectSampler(cmp_target(CmpParams(2.0, 0.5)))
        assert geweke_nu_star(NuTargetParams(n=200, A=120.0, a_nu=0.01, b_nu=200.0))[1]

    def test_diagnostics_from_given_step_match_build(self):
        # A sampler over a step built elsewhere reports the same window as
        # the build: u_lo is the first knot above the head knot at u = 0.
        target = cmp_target(CmpParams(2.0, 0.5))
        built = DirectSampler(target)
        assert built.diagnostics.u_lo > 0.0
        assert DirectSampler(target, built.config, step=built.step).diagnostics == built.diagnostics

    def test_diagnostics_computed_on_first_read(self, monkeypatch):
        # A Gibbs step draws once and never reads the diagnostics, so the
        # rectangle area over its ~2,000 level knots is summed only on demand.
        calls = []
        summed = stepdirect.sampler.log_total_rect_area
        monkeypatch.setattr(stepdirect.sampler, "log_total_rect_area", lambda kt: calls.append(kt) or summed(kt))
        target = nu_target(NuTargetParams(n=200, A=180.0, a_nu=0.01, b_nu=200.0))
        sampler = DirectSampler(target, GIBBS_STEP_CONFIG)
        sampler.draw(Rng(0))
        assert calls == []
        assert sampler.diagnostics == build_sampler(target, GIBBS_STEP_CONFIG)[1]
        assert len(calls) == 2

    def test_diagnostics_consistent(self):
        step, diag = build_sampler(quadratic_target())
        assert diag.rejection_bound == pytest.approx(rejection_bound(step))
        assert diag.rect_area == pytest.approx(math.exp(diag.log_rect_area))
        assert 0.0 <= diag.rejection_bound <= 1.0


class TestFindULo:
    @pytest.mark.parametrize("target", continuous_targets(), ids=lambda t: t.name)
    def test_closed_form_on_continuous_base(self, target):
        ends = target.log_w(np.array([target.base.lo, target.base.hi]))
        expected = max(DESCENT_TOL, math.exp(float(np.min(ends)) - target.log_c))
        assert find_u_lo(target) == expected

    def test_quadratic_drop_starts_at_u_lo(self):
        # P(A_u) = P(A_0) until u passes w(1) / c = exp(-2.45).
        target = quadratic_target()
        u_lo = find_u_lo(target)
        assert u_lo == pytest.approx(math.exp(-2.45), rel=1e-12)
        log_p0 = target.log_prob_Au(0.0)
        assert target.log_prob_Au(u_lo * (1.0 - 1e-6)) == log_p0
        assert target.log_prob_Au(u_lo * (1.0 + 1e-6)) < log_p0

    def test_geometric_base_never_evaluates_the_infinite_end(self):
        # The infinite end counts as w = 0 there, so P(A_u) drops at u = 0
        # and u_lo is the floor, with no log_w call: CMP's log_w(inf) is NaN.
        for params in (CmpParams(2.0, 0.5), CmpParams(2.0, 5.0), CmpParams(0.5, 0.3)):
            target = cmp_target(params)
            calls = []
            log_w = target.log_w
            target.log_w = lambda x, log_w=log_w: calls.append(x) or log_w(x)
            assert find_u_lo(target) == DESCENT_TOL
            assert calls == []

    @pytest.mark.parametrize("nu", [200.0, 1000.0, 1.0e4])
    def test_high_nu_floors_at_descent_tol(self, nu):
        # CMP(2, nu) puts all its mass on {0, 1}, with w(0) / c = 1/3 at
        # every nu >= 1, so the knots cover [DESCENT_TOL, 1] as anywhere
        # else. Against the continuous extension's maximum, w(1) / c was
        # 5.1e-11 at nu = 200 and exp(-1214), below every normal double, at
        # nu = 1e4.
        params = CmpParams(2.0, nu)
        target = cmp_target(params)
        assert find_u_lo(target) == DESCENT_TOL
        pmf = cmp_pmf_oracle(params).pmf
        for method in ("greedy", "equal"):
            sampler = DirectSampler(target, SamplerConfig(knot_method=method))
            assert sampler.diagnostics.rejection_bound <= 0.15
            draws, _ = sampler.sample(20_000, Rng(3))
            emp = np.bincount(draws.astype(int), minlength=pmf.size)[: pmf.size] / draws.size
            assert draws.max() <= 1.0
            assert 0.5 * np.abs(emp - pmf).sum() < 0.015

    def test_flat_weight_has_no_descent(self):
        target = WeightedTarget(
            log_w=lambda x: np.zeros(np.shape(x)), x_mode=0.5, log_c=0.0, base=UniformBase(0.0, 1.0)
        )
        with pytest.raises(DegenerateTargetError, match="no descent"):
            find_u_lo(target)


def log_weight_mass(target):
    """log of the integral of w(x) / c against the base, by quadrature on
    either side of the mode: the acceptance mass of any exact envelope."""

    def w_over_c(x):
        return math.exp(float(target.log_w(np.array([x]))[0]) - target.log_c)

    base = target.base
    parts = [
        integrate.quad(w_over_c, a, b, limit=500, epsabs=0.0, epsrel=1e-12)[0]
        for a, b in ((base.lo, target.x_mode), (target.x_mode, base.hi))
    ]
    return math.log(sum(parts) / (base.hi - base.lo))


class TestLevelEnvelope:
    """Gibbs-config envelopes against quadrature."""

    @pytest.mark.parametrize("a_const", [101.0, 400.0])
    def test_rejection_bound_holds(self, a_const):
        # The rejection probability is 1 - (mass of w / c) / a. Summing
        # (h_j - h_{j+1}) du in place of (h_j - low_j) du falls below it
        # on both targets.
        target = nu_target(NuTargetParams(n=200, A=a_const, a_nu=0.01, b_nu=200.0))
        step, diag = build_sampler(target, GIBBS_STEP_CONFIG)
        rejection = -math.expm1(log_weight_mass(target) - step.log_a)
        assert 0.0 < rejection <= diag.rejection_bound

    @pytest.mark.parametrize("name", ["nu A=180", "rho 6x6"])
    def test_draws_match_quadrature(self, name):
        if name == "nu A=180":
            target = nu_target(NuTargetParams(n=200, A=180.0, a_nu=0.01, b_nu=200.0))
        else:
            target = continuous_targets()[3]
        draws, _ = DirectSampler(target, GIBBS_STEP_CONFIG).sample(100_000, Rng(21))
        grid = np.linspace(target.base.lo, target.base.hi, 400_001)
        with np.errstate(divide="ignore"):
            density = np.exp(target.log_w(grid) - target.log_c)
        cdf = integrate.cumulative_trapezoid(density, grid, initial=0.0)
        cdf /= cdf[-1]
        pvalue = stats.kstest(draws, lambda x: np.interp(x, grid, cdf)).pvalue
        assert pvalue > 0.01

    @pytest.mark.parametrize("a_const", [101.0, 150.0, 400.0])
    def test_level_sample_matches_geweke(self, a_const):
        # The cells' proposal (x from the cells, then u under x's cell)
        # against the independent truncated-exponential rejection sampler.
        p = NuTargetParams(n=200, A=a_const, a_nu=0.01, b_nu=200.0)
        n = 100_000
        direct, report = DirectSampler(nu_target(p), GIBBS_STEP_CONFIG).sample(n, Rng(31))
        baseline, _ = geweke_sample_many(p, n, Rng(32))
        assert stats.ks_2samp(direct, baseline).pvalue > 0.01
        assert report.n_rejected / (n + report.n_rejected) < 0.01

    @pytest.mark.parametrize("name", ["nu mode at b_nu", "rho mode at 0"])
    def test_mode_at_a_support_end(self, name):
        # One side of the mode is empty: nu at A = n/2 has its mode at b_nu,
        # and rho at a drift below 0 has its mode at 0.
        if name == "nu mode at b_nu":
            target = nu_target(NuTargetParams(n=200, A=100.0, a_nu=0.01, b_nu=200.0))
            assert target.x_mode == 200.0
        else:
            a = lattice_adjacency(6)
            target = rho_target(car_eigen_precompute(a, a.sum(axis=1)), -4.0, 1.0)
            assert target.x_mode == 0.0
        envelope = build_envelope(target, GIBBS_STEP_CONFIG)
        assert envelope.n_left == (envelope.bounds.size - 1 if name == "nu mode at b_nu" else 0)
        draws, _ = DirectSampler(target, GIBBS_STEP_CONFIG).sample(100_000, Rng(33))
        # Binned TV against quadrature of w over 20 equal-probability bins.
        grid = np.linspace(target.base.lo, target.base.hi, 400_001)
        with np.errstate(divide="ignore"):
            density = np.exp(target.log_w(grid) - target.log_c)
        cdf = integrate.cumulative_trapezoid(density, grid, initial=0.0)
        cdf /= cdf[-1]
        edges = np.interp(np.linspace(0.0, 1.0, 21), cdf, grid)
        edges[0], edges[-1] = target.base.lo, target.base.hi
        emp = np.histogram(draws, bins=edges)[0] / draws.size
        assert 0.5 * np.abs(emp - 0.05).sum() < 0.01


class TestGibbsStepCalls:
    """Python calls in one direct Gibbs step, as cProfile counts them: a
    cost that needs no timer and does not change with the machine's load.

    Each bound sits a few percent above the count with Python 3.11 and
    numpy 2.4; both draws below take no rejection, which would add calls.
    """

    @staticmethod
    def calls(step, *args) -> int:
        step(*args, Rng(0))  # lazy set-up: imports, cached spectra
        rng = Rng(1)
        profile = cProfile.Profile()
        profile.enable()
        step(*args, rng)
        profile.disable()
        # pstats keys functions by (file, line, name), which merges every
        # dataclass-generated __init__ into one entry; the raw entries do not.
        return sum(entry.callcount for entry in profile.getstats())

    def test_nu_step(self):
        # 168 calls, with the nu table built.
        assert self.calls(draw_nu_direct, NuTargetParams(n=200, A=150.0, a_nu=0.01, b_nu=200.0)) <= 188

    def test_rho_step(self):
        # 174 calls, on the 6x6 lattice with its rho table.
        data = car_synthetic(6, [1.0, 0.5], 0.5, 1.0, 0.9, Rng(70), n_rep=4)
        state = CarState(beta=np.zeros(2), eta=np.full(data.k, 0.5), sigma2=0.5, tau2=1.0, rho=0.5)
        assert self.calls(draw_rho_direct, data, state) <= 179


class TestSampleWork:
    """log_w calls of a bulk adaptive sample: a cost that needs no timer and
    does not change with the machine's load. The bound is the count with
    Python 3.11 and numpy 2.4 plus 10%."""

    def test_cmp_sample(self):
        # 160 calls: 89 to build the envelope, 71 to sample 10,000 draws
        # and insert their 213 rejections as knots.
        target = cmp_target(CmpParams(2.0, 0.05))
        calls = []
        log_w = target.log_w
        target.log_w = lambda x: calls.append(np.size(x)) or log_w(x)
        DirectSampler(target).sample(10_000, Rng(1))
        assert len(calls) <= 176


class _CountingGenerator:
    """Generator stand-in that counts the uniforms handed out."""

    def __init__(self, generator):
        self.generator = generator
        self.n_uniforms = 0

    def uniform(self, *args, size=None):
        self.n_uniforms += 1 if size is None else int(np.prod(size))
        return self.generator.uniform(*args, size=size)


class TestDraw:
    def test_uniforms_per_candidate(self):
        # u and x for every candidate, accepted or not.
        target = quadratic_target(scale=2000.0)
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=1, adapt=False))
        rng = Rng(3)
        counter = _CountingGenerator(rng.generator)
        rng.generator = counter
        n_rejected = 0
        for n_draws in range(1, 31):
            n_rejected += sampler.draw(rng).n_rejected
            assert counter.n_uniforms == 2 * (n_rejected + n_draws)
        assert n_rejected > 0

    @pytest.mark.parametrize("name", ["greedy", "rho-level", "cmp", "adaptive-greedy", "adaptive-cmp"])
    def test_scalar_draw_matches_sample_of_one(self, name):
        # draw runs one candidate at a time on floats, and sample(1) runs
        # _propose on arrays. Started from one built step on the same
        # stream, they take the same uniforms, reject the same candidates,
        # insert the same knots and return the same x.
        if name == "greedy":
            target, config = quadratic_target(scale=2000.0), SamplerConfig(n_init_knots=1, adapt=False)
        elif name == "rho-level":
            target, config = continuous_targets()[3], GIBBS_STEP_CONFIG
        elif name == "cmp":
            target, config = cmp_target(CmpParams(2.0, 0.2)), SamplerConfig(n_init_knots=3, adapt=False)
        elif name == "adaptive-greedy":
            target, config = quadratic_target(scale=2000.0), SamplerConfig(n_init_knots=1)
        else:
            target, config = cmp_target(CmpParams(2.0, 0.2)), SamplerConfig(n_init_knots=3)
        step = build_envelope(target, config)
        drawn, sampled = DirectSampler(target, config, step), DirectSampler(target, config, step)
        scalar, block = Rng(11), Rng(11)
        scalar.generator = _CountingGenerator(scalar.generator)
        block.generator = _CountingGenerator(block.generator)
        n_rejected = knots_inserted = 0
        for _ in range(40):
            report = drawn.draw(scalar)
            x, aggregate = sampled.sample(1, block)
            assert report.x == x[0]
            assert (report.n_rejected, report.knots_inserted) == (aggregate.n_rejected, aggregate.knots_inserted)
            assert scalar.generator.n_uniforms == block.generator.n_uniforms
            n_rejected += report.n_rejected
            knots_inserted += report.knots_inserted
        for field in ("knots", "log_probs", "x1", "x2", "log_lows"):
            assert np.array_equal(getattr(drawn.step.table, field), getattr(sampled.step.table, field))
        assert n_rejected > 0 or name == "rho-level"
        assert (knots_inserted > 0) == config.adapt

    def test_one_endpoint_solve_per_candidate(self):
        # The accept test needs no solve; only a rejected candidate that
        # adaptation inserts as a knot is solved, one at a time in draw.
        for adapt in (False, True):
            target = quadratic_target(scale=2000.0)
            sampler = DirectSampler(target, SamplerConfig(n_init_knots=1, adapt=adapt))
            solves = []
            endpoints = target.interval_endpoints
            target.interval_endpoints = lambda thr, *rest: solves.append(np.size(thr)) or endpoints(thr, *rest)
            rng = Rng(3)
            n_rejected = sum(sampler.draw(rng).n_rejected for _ in range(30))
            assert n_rejected > 0
            assert solves == ([1] * n_rejected if adapt else [])

    def test_reproducible(self):
        target = cmp_target(CmpParams(2.0, 2.0))
        r1 = DirectSampler(target).draw(Rng(5))
        r2 = DirectSampler(target).draw(Rng(5))
        assert r1.x == r2.x and r1.n_rejected == r2.n_rejected

    def test_report_fields(self):
        report = DirectSampler(quadratic_target()).draw(Rng(1))
        assert 0.0 <= report.u_accepted <= 1.0
        assert report.n_rejected >= 0

    def test_scalar_draws_match_oracle(self):
        params = CmpParams(2.0, 2.0)
        oracle = cmp_pmf_oracle(params)
        sampler = DirectSampler(cmp_target(params))
        rng = Rng(6)
        draws = np.array([sampler.draw(rng).x for _ in range(20_000)], dtype=int)
        counts = np.bincount(draws, minlength=oracle.x_max + 1)
        tv = 0.5 * np.abs(counts / draws.size - oracle.pmf[: counts.size]).sum()
        assert tv < 0.015

    def test_stall_raises(self, monkeypatch):
        # A 1-interval envelope over a sharply peaked weight rejects most
        # candidates; with a zero budget the first rejection must raise.
        monkeypatch.setattr(stepdirect.sampler, "MAX_REJECTS", 0)
        target = quadratic_target(scale=2000.0)
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=1, adapt=False))
        rng = Rng(7)
        with pytest.raises(SamplerStallError, match="exceeded 0 rejections"):
            for _ in range(200):
                sampler.draw(rng)

    def test_stall_counts_rejections_since_the_last_draw(self, monkeypatch):
        # A healthy sampler rejects often in total but never many in a row:
        # sample(2000) makes well over 100 rejections and no stall, while a
        # sampler that accepts nothing still stalls.
        monkeypatch.setattr(stepdirect.sampler, "MAX_REJECTS", 100)
        target = cmp_target(CmpParams(2.0, 0.5))
        draws, report = DirectSampler(target, SamplerConfig(n_init_knots=2, adapt=False)).sample(2000, Rng(0))
        assert draws.size == 2000 and report.n_rejected > 1000
        stalled = DirectSampler(target, SamplerConfig(n_init_knots=2, adapt=False))
        target.log_w = lambda x: np.full(np.shape(x), -np.inf)
        with pytest.raises(SamplerStallError, match=r"exceeded 100 rejections since the last accepted draw \(0 accepted\)"):
            stalled.sample(10, Rng(0))


class TestSampleBlocks:
    def test_matches_scalar_distribution(self):
        params = CmpParams(2.0, 0.5)
        oracle = cmp_pmf_oracle(params)
        draws, report = DirectSampler(cmp_target(params)).sample(20_000, Rng(8))
        counts = np.bincount(draws.astype(int), minlength=oracle.x_max + 1)
        tv = 0.5 * np.abs(counts / draws.size - oracle.pmf[: counts.size]).sum()
        assert tv < 0.015
        assert report.n_draws == 20_000

    @pytest.mark.parametrize("adapt", [False, True])
    def test_one_endpoint_solve_per_block(self, adapt, monkeypatch):
        # Candidates are not solved. An adaptive block with rejections
        # solves its rejected u in one call, right after the block.
        target = cmp_target(CmpParams(2.0, 0.2))
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=3, adapt=adapt))
        events = []
        propose = stepdirect.stepfn.StepApprox.propose
        monkeypatch.setattr(
            stepdirect.stepfn.StepApprox,
            "propose",
            lambda s, base, v_u, v_x: events.append(("block", np.size(v_u))) or propose(s, base, v_u, v_x),
        )
        endpoints = target.interval_endpoints
        target.interval_endpoints = lambda thr, *rest: events.append(("solve", np.size(thr))) or endpoints(thr, *rest)
        _, report = sampler.sample(5000, Rng(9))
        kinds = [kind for kind, _ in events]
        solves = [size for kind, size in events if kind == "solve"]
        assert report.n_rejected > 0 and kinds.count("block") > 1
        if adapt:
            assert kinds[0] == "block" and ("solve", "solve") not in zip(kinds, kinds[1:])
            assert sum(solves) == report.n_rejected
        else:
            assert solves == []

    def test_one_log_w_point_per_candidate(self):
        target = cmp_target(CmpParams(2.0, 0.5))
        sampler = DirectSampler(target, SamplerConfig(adapt=False))
        points, solves = [], []
        log_w, endpoints = target.log_w, target.interval_endpoints
        target.log_w = lambda x: points.append(np.size(x)) or log_w(x)
        target.interval_endpoints = lambda thr, *rest: solves.append(np.size(thr)) or endpoints(thr, *rest)
        _, report = sampler.sample(5000, Rng(10))
        assert report.n_rejected > 0
        assert sum(points) == 5000 + report.n_rejected
        assert solves == []

    def test_insertion_capped_at_max_knots(self, monkeypatch):
        # A block inserts at most MAX_KNOTS - size knots, and solves no more.
        target = cmp_target(CmpParams(2.0, 0.2))
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=3))
        size = sampler.step.table.knots.size
        monkeypatch.setattr(stepdirect.sampler, "MAX_KNOTS", size + 2)
        solves = []
        endpoints = target.interval_endpoints
        target.interval_endpoints = lambda thr, *rest: solves.append(np.size(thr)) or endpoints(thr, *rest)
        _, report = sampler.sample(5000, Rng(9))
        assert report.n_rejected > 2
        assert report.knots_inserted == 2
        assert sampler.step.table.knots.size == size + 2
        assert sum(solves) <= 2

    @pytest.mark.parametrize("max_block", [None, 64])
    @pytest.mark.parametrize("name", ["cmp", "nu-level"])
    def test_non_adaptive_sample_is_draws(self, name, max_block, monkeypatch):
        # Each candidate takes its two uniforms as a pair, in draw and in
        # sample alike, and no block proposes past the n-th acceptance, so a
        # non-adaptive sample(n) is n draws bit for bit: in one block, and
        # with MAX_BLOCK patched small, in many.
        if max_block is not None:
            monkeypatch.setattr(stepdirect.sampler, "MAX_BLOCK", max_block)
        if name == "cmp":
            target, config = cmp_target(CmpParams(2.0, 0.5)), SamplerConfig(adapt=False)
        else:
            target, config = nu_target(NuTargetParams(n=200, A=150.0, a_nu=0.01, b_nu=200.0)), GIBBS_STEP_CONFIG
        sampler = DirectSampler(target, config)
        blocks = []
        propose = sampler._propose
        sampler._propose = lambda m, *rest: blocks.append(m) or propose(m, *rest)
        scalar, block = Rng(13), Rng(13)
        drawn = [sampler.draw(scalar) for _ in range(5000)]
        x, report = sampler.sample(5000, block)
        assert np.array_equal(x, [d.x for d in drawn])
        assert report.n_rejected == sum(d.n_rejected for d in drawn) > 0
        assert scalar.generator.uniform() == block.generator.uniform()
        assert max(blocks) == (5000 if max_block is None else 64) and (len(blocks) > 78) == (max_block is not None)

    def test_zero_draws(self):
        draws, report = DirectSampler(quadratic_target()).sample(0, Rng(0))
        assert draws.size == 0 and report.n_rejected == 0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            DirectSampler(quadratic_target()).sample(-1, Rng(0))

    def test_adaptation_inserts_knots(self):
        target = cmp_target(CmpParams(2.0, 0.2))
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=3))
        before = sampler.step.table.knots.size
        _, report = sampler.sample(5000, Rng(9))
        assert report.knots_inserted > 0
        assert sampler.step.table.knots.size == before + report.knots_inserted

    def test_non_adaptive_keeps_envelope(self):
        target = cmp_target(CmpParams(2.0, 0.5))
        sampler = DirectSampler(target, SamplerConfig(adapt=False))
        before = sampler.step.table.knots.size
        _, report = sampler.sample(5000, Rng(10))
        assert report.knots_inserted == 0
        assert sampler.step.table.knots.size == before

    def test_rejection_rate_within_bound(self):
        target = cmp_target(CmpParams(2.0, 0.5))
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=10, adapt=False))
        bound = sampler.rejection_bound()
        n = 20_000
        _, report = sampler.sample(n, Rng(11))
        trials = n + report.n_rejected
        sigma = math.sqrt(bound * (1.0 - bound) / trials)
        assert report.n_rejected / trials <= bound + 3.0 * sigma


class TestWrappers:
    """Drawing against an existing envelope and bulk draws from a fresh one."""

    def test_direct_draw_returns_updated_step(self):
        target = cmp_target(CmpParams(2.0, 0.5))
        cfg = SamplerConfig(n_init_knots=3)
        step, _ = build_sampler(target, cfg)
        sampler = DirectSampler(target, cfg, step=step)
        report = sampler.draw(Rng(12))
        assert report.x >= 0
        assert sampler.step.table.knots.size == step.table.knots.size + report.knots_inserted

    def test_direct_sample_many(self):
        draws, report = DirectSampler(cmp_target(CmpParams(2.0, 2.0)), SamplerConfig()).sample(500, Rng(13))
        assert draws.size == 500
        assert report.n_draws == 500


def check_window_rule(target, table):
    """Every stored window contains A_{u_j}, and every height is its mass.

    log w must be at or below the knot's threshold at each finite end
    inside the support, where the solver compared it, and, on integers, at
    the integer just outside. Between the solver's end and that integer
    log w can rise by its rounding error (up to ~1e-10 on CMP near
    x = 1e5, where its two terms are ~1e5 and cancel), so 1e-13 (1 + |log w|)
    is allowed there.
    """
    with np.errstate(divide="ignore"):
        thr = np.log(table.knots) + target.log_c
    for x, inside in ((table.x1, table.x1 > target.base.lo), (table.x2, table.x2 < target.base.hi)):
        assert np.all(target.log_w(x[inside]) <= thr[inside])
    if target.discrete:
        lo, hi = integer_window(table.x1, table.x2)
        for x, inside in ((lo - 1.0, lo - 1.0 >= 0.0), (hi + 1.0, np.isfinite(hi))):
            t = thr[inside]
            assert np.all(target.log_w(x[inside]) <= t + 1e-13 * (1.0 + np.abs(t)))
    assert np.array_equal(table.log_probs, target.base.log_prob(table.x1, table.x2))


def integer_levels(target, u_min):
    """(k, log w(k)) for the integers around the mode, out to where w(k) / c
    is at or below u_min on each side, or to k = 0. log w is concave, so w / c
    is below u_min at every integer left out too."""
    m = target.x_mode
    thr = math.log(u_min) + target.log_c
    reach = 64
    while True:
        ks = np.arange(max(0.0, math.floor(m) - reach), math.ceil(m) + reach + 1)
        log_w = target.log_w(ks)
        if (ks[0] == 0.0 or log_w[0] <= thr) and log_w[-1] <= thr:
            return ks, log_w
        reach *= 2


class TestWindowRule:
    """The windows the envelope stores, before and after adaptation."""

    # lam >= 1.5: near lam = 1 and nu = 0.1 the geometric base split of
    # cmp_target leaves the envelope with no acceptance mass, and sampling
    # stalls (an open CMP regime, not a window-rule question).
    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(min_value=1.5, max_value=5.0),
        nu=st.floats(min_value=0.1, max_value=5.0),
        n_knots=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_cmp_windows_contain_superlevel_sets(self, lam, nu, n_knots, seed):
        self.check(cmp_target(CmpParams(lam, nu)), n_knots, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        center=st.floats(min_value=0.05, max_value=0.95),
        scale=st.floats(min_value=0.5, max_value=5000.0),
        n_knots=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_quadratic_windows_contain_superlevel_sets(self, center, scale, n_knots, seed):
        self.check(quadratic_target(center, scale), n_knots, seed)

    # The example's two top integers (mode 1.05e6) both read log c, and
    # the u = 1 knot kept only one while the solver read log w between them.
    @settings(max_examples=40, deadline=None)
    @example(lam=4.0, nu=0.1, n_knots=1, method="greedy")
    @given(
        lam=st.floats(min_value=1.5, max_value=5.0),
        nu=st.floats(min_value=0.1, max_value=5.0),
        n_knots=st.integers(min_value=1, max_value=30),
        method=st.sampled_from(["greedy", "equal"]),
    )
    def test_cmp_window_against_enumeration(self, lam, nu, n_knots, method):
        self.check_enumeration(cmp_target(CmpParams(lam, nu)), n_knots, method)

    @pytest.mark.parametrize("method", ["greedy", "equal"])
    def test_tie_target_window_against_enumeration(self, method):
        # log w(4) = log w(5) = -0.25: the first of the two is the mode.
        target = WeightedTarget(
            log_w=lopsided_log_w(4.5, 1.0, 1.0), x_mode=4.5, log_c=0.0, base=GeometricBase(0.5)
        )
        assert (target.x_mode, target.log_c) == (4.0, -0.25)
        self.check_enumeration(target, 10, method)

    @staticmethod
    def check_enumeration(target, n_knots, method):
        """x_mode is an integer where log w reads log c, the last knot is
        u = 1 with the window of the integers that read at log c, and the
        envelope is at least P(A_u) summed over the integers, at every knot,
        every piece's midpoint and just below every knot but the first."""
        ks, log_w = integer_levels(target, DESCENT_TOL)
        assert target.x_mode == math.floor(target.x_mode)
        assert target.log_w(target.x_mode) == target.log_c
        step, diag = build_sampler(target, SamplerConfig(n_init_knots=n_knots, knot_method=method, adapt=False))
        top = ks[log_w >= target.log_c]
        assert diag.u_hi == 1.0
        assert integer_window(step.table.x1[-1], step.table.x2[-1]) == (top[0], top[-1])
        knots = step.table.knots
        u = np.concatenate((knots, 0.5 * (knots[:-1] + knots[1:]), np.nextafter(knots[1:], 0.0)))
        log_pmf = math.log(target.base.p) + ks * target.base.log_q
        # A_1 is empty by definition, as in WeightedTarget.superlevel: near a
        # large mode log w can round above log_c (CMP(5, 0.1), mode 9.8e6).
        with np.errstate(divide="ignore"):
            thr = np.where(u < 1.0, np.log(u) + target.log_c, np.inf)
        log_p = np.array([log_sum_exp(log_pmf[log_w > t]) for t in thr])
        assert np.all(step_logpdf_unnorm(step, u) >= log_p - 1e-9)

    @staticmethod
    def check(target, n_knots, seed):
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=n_knots))
        check_window_rule(target, sampler.step.table)
        _, report = sampler.sample(2000, Rng(seed))
        check_window_rule(target, sampler.step.table)
        assert sampler.step.table.knots.size == sampler.diagnostics.n_knots + report.knots_inserted
