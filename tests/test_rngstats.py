from __future__ import annotations

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular

from stepdirect.errors import (
    DomainError,
    InfeasibleTruncationError,
    NotPositiveDefiniteError,
)
from stepdirect.rngstats import Rng, summarize


class TestRng:
    def test_reproducible(self):
        a = Rng(42, 3).generator.uniform(size=5)
        b = Rng(42, 3).generator.uniform(size=5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(42, 0).generator.uniform(size=5)
        b = Rng(42, 1).generator.uniform(size=5)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            Rng(-1)

    def test_parameter_validation(self):
        rng = Rng(0)
        with pytest.raises(DomainError):
            rng.gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            rng.inverse_gamma(1.0, -1.0)

    def test_gamma_rate_convention(self):
        draws = Rng(1).gamma(4.0, 2.0, size=200_000)
        assert np.mean(draws) == pytest.approx(2.0, rel=0.02)

    def test_inverse_gamma_mean(self):
        draws = Rng(2).inverse_gamma(5.0, 8.0, size=200_000)
        assert np.mean(draws) == pytest.approx(8.0 / 4.0, rel=0.02)


class TestInverseGammaTrunc:
    def test_respects_bound(self):
        rng = Rng(3)
        draws = [rng.inverse_gamma_trunc(2.0, 1.0, 0.8) for _ in range(500)]
        assert max(draws) <= 0.8

    def test_loose_bound_matches_untruncated(self):
        rng = Rng(4)
        draws = np.array([rng.inverse_gamma_trunc(3.0, 2.0, 1e6) for _ in range(20_000)])
        ref = stats.invgamma(3.0, scale=2.0)
        ks = stats.kstest(draws, ref.cdf)
        assert ks.pvalue > 0.01

    def test_truncated_law_matches_conditional(self):
        rng = Rng(5)
        hi = 0.5
        draws = np.array([rng.inverse_gamma_trunc(3.0, 2.0, hi) for _ in range(20_000)])
        ref = stats.invgamma(3.0, scale=2.0)
        ks = stats.kstest(draws, lambda x: ref.cdf(x) / ref.cdf(hi))
        assert ks.pvalue > 0.01

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTruncationError):
            Rng(0).inverse_gamma_trunc(2.0, 1.0, 1e-300)


class TestMvnPrecision:
    def test_mean_and_covariance(self):
        omega = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, -1.0])
        rng = Rng(6)
        draws = np.array([rng.mvn_precision(omega, b) for _ in range(50_000)])
        cov = np.linalg.inv(omega)
        assert np.allclose(draws.mean(axis=0), cov @ b, atol=0.02)
        assert np.allclose(np.cov(draws.T), cov, atol=0.02)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            Rng(0).mvn_precision(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize("entry", [(0, 0, np.nan), (1, 0, np.nan), (1, 1, np.nan), (0, 0, np.inf)])
    def test_nonfinite_precision_raises(self, entry):
        # np.linalg.cholesky returns NaN for a NaN matrix without raising.
        i, j, value = entry
        omega = np.eye(2)
        omega[i, j] = omega[j, i] = value
        with pytest.raises(NotPositiveDefiniteError):
            Rng(0).mvn_precision(omega, np.zeros(2))

    @pytest.mark.parametrize("b", [[np.nan, 0.0], [0.0, -np.inf], [0.0, 0.0, 0.0], [[0.0], [0.0]]])
    def test_bad_linear_term_raises(self, b):
        with pytest.raises(DomainError):
            Rng(0).mvn_precision(np.eye(2), np.array(b))

    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_matches_solve_triangular_draw(self, d):
        # The draw as three scipy.linalg.solve_triangular calls, with the
        # same factor and the same normals.
        def reference(rng, omega, b):
            lower = np.linalg.cholesky(omega)
            half = solve_triangular(lower, b, lower=True)
            mean = solve_triangular(lower.T, half, lower=False)
            return mean + solve_triangular(lower.T, rng.generator.standard_normal(d), lower=False)

        g = np.random.default_rng(d)
        for seed in range(50):
            a = g.standard_normal((d, d + 2))
            omega, b = a @ a.T + 0.1 * np.eye(d), 10.0 * g.standard_normal(d)
            ours, theirs = Rng(seed), Rng(seed)
            assert np.array_equal(ours.mvn_precision(omega, b), reference(theirs, omega, b))
            assert ours.generator.bit_generator.state == theirs.generator.bit_generator.state


class TestSummarize:
    def test_known_values(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.sd == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert s.q025 < s.q975

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            summarize([])
