from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from stepdirect.cmp import (
    CmpDecomposition,
    CmpParams,
    cmp_log_weight,
    cmp_mismatch_demo,
    cmp_mode,
    cmp_pmf_oracle,
    cmp_target,
    default_decomposition,
)
from stepdirect.errors import DomainError, StepDirectError
from stepdirect.rngstats import Rng
from stepdirect.sampler import DirectSampler, SamplerConfig


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            CmpParams(0.0, 1.0)
        with pytest.raises(DomainError):
            CmpParams(2.0, -0.1)
        with pytest.raises(DomainError):
            CmpParams(2.0, 0.0)  # geometric-series case needs lam < 1

    def test_nu_zero_with_small_lam_allowed(self):
        CmpParams(0.5, 0.0)

    def test_mu(self):
        assert CmpParams(2.0, 0.5).mu == pytest.approx(4.0)
        with pytest.raises(DomainError):
            CmpParams(0.5, 0.0).mu

    def test_default_decomposition_switch(self):
        assert default_decomposition(CmpParams(2.0, 1.0)) is CmpDecomposition.GEOMETRIC_LAMBDA
        assert default_decomposition(CmpParams(2.0, 5.0)) is CmpDecomposition.GEOMETRIC_LAMBDA
        assert default_decomposition(CmpParams(2.0, 0.5)) is CmpDecomposition.GEOMETRIC_MU


class TestLogWeight:
    def test_value_at_zero(self):
        # x = 0: the factorial term vanishes, leaving log(1 + rate).
        p = CmpParams(2.0, 2.0)
        assert cmp_log_weight(0.0, p, CmpDecomposition.GEOMETRIC_LAMBDA) == pytest.approx(
            math.log(3.0)
        )

    def test_decompositions_agree_up_to_base(self):
        # w(x) g(x) must give the same unnormalized pmf either way.
        p = CmpParams(2.0, 0.5)
        x = np.arange(0, 20, dtype=float)
        for decomp, rate in (
            (CmpDecomposition.GEOMETRIC_LAMBDA, p.lam),
            (CmpDecomposition.GEOMETRIC_MU, p.mu),
        ):
            base_logpmf = math.log(1.0 / (1.0 + rate)) + x * math.log(rate / (1.0 + rate))
            joint = cmp_log_weight(x, p, decomp) + base_logpmf
            ref = x * math.log(p.lam) - p.nu * np.array(
                [math.lgamma(v + 1.0) for v in x]
            )
            np.testing.assert_allclose(joint - joint[0], ref - ref[0], atol=1e-10)


class TestMode:
    def test_maximizes_over_integers(self):
        for nu in (0.2, 0.5, 1.0, 2.0, 5.0):
            p = CmpParams(2.0, nu)
            decomp = default_decomposition(p)
            x_mode, log_c = cmp_mode(p, decomp)
            grid = np.arange(0, max(50, int(x_mode * 3)), dtype=float)
            assert log_c >= cmp_log_weight(grid, p, decomp).max() - 1e-9

    def test_nu_zero_rejected(self):
        with pytest.raises(DomainError):
            cmp_mode(CmpParams(0.5, 0.0), CmpDecomposition.GEOMETRIC_LAMBDA)

    @pytest.mark.parametrize("lam, nu", [(0.5, 0.001), (50.0, 0.02)])
    def test_unrepresentable_mode_raises(self, lam, nu):
        # drift / nu ~ 6.9e5 overflows e^(drift / nu); at (50, 0.02) the mode
        # is ~8.9e84, past 2^53, where integers are not exact doubles.
        with pytest.raises(DomainError, match=rf"lam={lam}, nu={nu}\) under the geometric-mu .* 2\^53"):
            cmp_target(CmpParams(lam, nu))

    def test_mode_near_one_million_builds(self):
        target = cmp_target(CmpParams(2.0, 0.05))
        assert 1.0e6 < target.x_mode < 1.1e6
        assert DirectSampler(target).step.table.knots[-1] <= 1.0

    def test_heights_rising_with_u_raise_typed_error(self):
        # The mode is 4.1e14, below 2^53, but log_c is 2.9e13: log w rounds by
        # about 3 nats there, more than the gaps between greedy knot heights.
        target = cmp_target(CmpParams(10.627472835292822, 0.07022383468430263))
        with pytest.raises(StepDirectError, match=r"cmp\(lam=10\.627472835292822, .*the solved P\(A_u\) rises"):
            DirectSampler(target)


class TestOracle:
    def test_poisson_case(self):
        # nu = 1 reduces to Poisson(lam): Z = e^lam exactly.
        table = cmp_pmf_oracle(CmpParams(2.0, 1.0))
        assert table.log_z == pytest.approx(2.0, abs=1e-12)
        x = np.arange(0, 30)
        np.testing.assert_allclose(
            table.pmf[:30], stats.poisson(2.0).pmf(x), atol=1e-12
        )

    def test_pmf_sums_to_one(self):
        for nu in (0.2, 0.5, 2.0, 5.0):
            table = cmp_pmf_oracle(CmpParams(2.0, nu))
            assert table.pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_quantile_inverts_cdf(self):
        table = cmp_pmf_oracle(CmpParams(2.0, 0.5))
        for phi in (0.025, 0.5, 0.975):
            x = table.quantile(phi)
            assert table.log_cdf(x) >= math.log(phi) - 1e-12
            assert x == 0 or table.log_cdf(x - 1) < math.log(phi)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            cmp_pmf_oracle(CmpParams(2.0, 1.0)).quantile(0.0)


class TestMismatchDemo:
    @staticmethod
    @pytest.fixture(scope="class")
    def demo():
        return cmp_mismatch_demo()

    def test_log_normalizer(self, demo):
        assert demo.log_z == pytest.approx(780.515, abs=0.01)

    def test_reparameterized_base_quantiles(self, demo):
        assert (demo.mu_base_q025, demo.mu_base_q975) == (261, 38_075)

    def test_bulk_sits_where_plain_base_has_no_mass(self, demo):
        # Nearly all target mass lies above 7306 while the plain geometric
        # base has essentially no mass beyond 7086: the decompositions are
        # not interchangeable in the overdispersed regime.
        assert demo.log_prob_x_le_7306 < math.log(1e-6)
        assert demo.log_prob_s_gt_7086 < -2800.0
        assert demo.x_q025 > demo.mu_base_q025
        assert demo.x_q975 < demo.mu_base_q975


class TestTargetSampling:
    def test_requires_positive_nu(self):
        with pytest.raises(DomainError):
            cmp_target(CmpParams(0.5, 0.0))

    def test_moments_match_oracle(self):
        params = CmpParams(2.0, 0.5)
        oracle = cmp_pmf_oracle(params)
        xs = np.arange(oracle.x_max + 1)
        mean_ref = float(xs @ oracle.pmf)
        draws, _ = DirectSampler(cmp_target(params)).sample(50_000, Rng(0))
        assert draws.mean() == pytest.approx(mean_ref, abs=0.06)

    def test_override_decomposition_same_law(self):
        params = CmpParams(2.0, 0.5)
        oracle = cmp_pmf_oracle(params)
        edges = [oracle.quantile(q) for q in (0.25, 0.5, 0.75)]
        bins = np.concatenate(([-0.5], np.asarray(edges) + 0.5, [np.inf]))
        cdf = np.exp([oracle.log_cdf(e) for e in edges])
        exact = np.diff(np.concatenate(([0.0], cdf, [1.0])))
        for decomp in CmpDecomposition:
            target = cmp_target(params, decomp)
            draws, _ = DirectSampler(target, SamplerConfig(n_init_knots=10)).sample(
                20_000, Rng(1)
            )
            emp = np.histogram(draws.astype(int), bins=bins)[0] / draws.size
            assert 0.5 * np.abs(emp - exact).sum() < 0.015
