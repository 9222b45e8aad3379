from __future__ import annotations

import math

import numpy as np
import pytest

import stepdirect.sampler
from stepdirect.car import RHO_SAMPLER_CONFIG, car_eigen_precompute, lattice_adjacency, rho_target
from stepdirect.cmp import CmpParams, cmp_pmf_oracle, cmp_target
from stepdirect.errors import DegenerateTargetError, DomainError, SamplerStallError
from stepdirect.rngstats import Rng
from stepdirect.sampler import (
    DirectSampler,
    SamplerConfig,
    build_sampler,
    rejection_bound,
)
from stepdirect.stepfn import DESCENT_TOL, find_u_hi, find_u_lo, step_logpdf_unnorm
from stepdirect.target import UniformBase, WeightedTarget
from stepdirect.treg import NU_SAMPLER_CONFIG, NuTargetParams, nu_target
from tests.test_acceptance import _registered_targets
from tests.test_target import quadratic_target


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

    def test_fixed_window_build_solves_twice(self):
        # One P(A_u) call for the knot grid and one for the head knot at
        # u = 0; a fixed u_lo on a continuous base needs no mass check.
        target = nu_target(NuTargetParams(n=200, A=120.0, a_nu=0.01, b_nu=200.0))
        sizes = []
        solve = target.log_prob_Au

        def counted(u):
            sizes.append(np.size(u))
            return solve(u)

        target.log_prob_Au = counted
        build_sampler(target, NU_SAMPLER_CONFIG)
        assert sizes == [NU_SAMPLER_CONFIG.n_init_knots + 1, 1]

    @pytest.mark.parametrize("name", ["rho drift=1.0", "rho drift=12.0", "nu A=120.0", "nu A=400.0"])
    def test_gibbs_configs_start_at_descent_tol(self, name):
        # On the acceptance gate's nu and rho targets the derived u_lo lies
        # far below DESCENT_TOL, so the floor gives the old fixed 1e-10.
        target, cfg = {n: (t, c) for n, t, c in _registered_targets()}[name]
        assert cfg in (NU_SAMPLER_CONFIG, RHO_SAMPLER_CONFIG)
        _step, diag = build_sampler(target, cfg)
        assert diag.u_lo == 1e-10

    def test_diagnostics_from_given_step_match_build(self):
        # A sampler over a step built elsewhere reports the same window as
        # the build: u_lo is the first knot above the head knot at u = 0.
        target = cmp_target(CmpParams(2.0, 0.5))
        built = DirectSampler(target)
        assert built.diagnostics.u_lo > 0.0
        assert DirectSampler(target, built.config, step=built.step).diagnostics == built.diagnostics

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

    def test_flat_weight_has_no_descent(self):
        target = WeightedTarget(
            log_w=lambda x: np.zeros(np.shape(x)), x_mode=0.5, log_c=0.0, base=UniformBase(0.0, 1.0)
        )
        with pytest.raises(DegenerateTargetError, match="no descent"):
            find_u_lo(target)


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
        # u and v for every candidate, and x only once one is accepted.
        target = quadratic_target(scale=2000.0)
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=1, adapt=False))
        rng = Rng(3)
        counter = _CountingGenerator(rng.generator)
        rng.generator = counter
        n_rejected = 0
        for n_draws in range(1, 31):
            n_rejected += sampler.draw(rng).n_rejected
            assert counter.n_uniforms == 2 * n_rejected + 3 * n_draws
        assert n_rejected > 0

    def test_one_endpoint_solve_per_candidate(self):
        # The accept test and the truncated draw share one solve.
        target = quadratic_target(scale=2000.0)
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=1, adapt=False))
        solves = []
        endpoints = target.interval_endpoints
        target.interval_endpoints = lambda thr: solves.append(np.size(thr)) or endpoints(thr)
        rng = Rng(3)
        candidates = sum(1 + sampler.draw(rng).n_rejected for _ in range(30))
        assert candidates > 30
        assert solves == [1] * candidates

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
        target = cmp_target(CmpParams(2.0, 0.2))
        sampler = DirectSampler(target, SamplerConfig(n_init_knots=3, adapt=adapt))
        blocks, solves = [], []
        propose = stepdirect.sampler.step_quantile_many
        monkeypatch.setattr(
            stepdirect.sampler, "step_quantile_many", lambda s, phi: blocks.append(np.size(phi)) or propose(s, phi)
        )
        endpoints = target.interval_endpoints
        target.interval_endpoints = lambda thr: solves.append(np.size(thr)) or endpoints(thr)
        _, report = sampler.sample(5000, Rng(9))
        assert report.n_rejected > 0 and len(blocks) > 1
        assert solves == blocks

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
