from __future__ import annotations

import math

import numpy as np
import pytest

from stepdirect.cmp import CmpParams, cmp_pmf_oracle, cmp_target
from stepdirect.errors import DomainError, SamplerStallError
from stepdirect.rngstats import Rng
from stepdirect.sampler import (
    DirectSampler,
    SamplerConfig,
    build_sampler,
    rejection_bound,
)
from stepdirect.stepfn import step_logpdf_unnorm
from tests.test_target import quadratic_target


class TestSamplerConfig:
    def test_defaults_valid(self):
        cfg = SamplerConfig()
        assert cfg.adapt and cfg.knot_method == "greedy"

    def test_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(n_init_knots=0)
        with pytest.raises(DomainError):
            SamplerConfig(knot_method="random")
        with pytest.raises(DomainError):
            SamplerConfig(u_hi_fixed=0.0)
        with pytest.raises(DomainError):
            SamplerConfig(u_lo_fixed=1.0)
        with pytest.raises(DomainError):
            SamplerConfig(u_lo_fixed=0.5, u_hi_fixed=0.5)

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

    def test_fixed_window_skips_search(self):
        target = quadratic_target()
        cfg = SamplerConfig(knot_method="equal", u_lo_fixed=1e-10, u_hi_fixed=1.0)
        step, diag = build_sampler(target, cfg)
        assert diag.u_lo == 1e-10 and diag.u_hi == 1.0
        assert step.table.knots[-1] == 1.0

    def test_fixed_u_lo_without_mass_rejected(self):
        # The quadratic target keeps mass everywhere below u = 1, so build a
        # discrete one whose superlevel set is empty well before u = 1.
        target = cmp_target(CmpParams(2.0, 5.0))
        with pytest.raises(DomainError):
            build_sampler(target, SamplerConfig(u_lo_fixed=1.0 - 1e-12))

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


class TestDraw:
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

    def test_stall_raises(self):
        # A 1-interval envelope over a sharply peaked weight rejects most
        # candidates; with a zero budget the first rejection must raise.
        target = quadratic_target(scale=2000.0)
        cfg = SamplerConfig(n_init_knots=1, adapt=False, max_rejects=0)
        sampler = DirectSampler(target, cfg)
        rng = Rng(7)
        with pytest.raises(SamplerStallError):
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
