from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.special import logsumexp

from stepdirect.logspace import log1mexp, log_add_exp, log_diff_exp, log_sum_exp


class TestLog1mexp:
    def test_half(self):
        assert log1mexp(math.log(0.5)) == pytest.approx(math.log(0.5))

    def test_zero_input_gives_neg_inf(self):
        assert log1mexp(0.0) == -math.inf

    def test_neg_inf_input_gives_zero(self):
        assert log1mexp(-math.inf) == 0.0

    def test_positive_input_rejected(self):
        with pytest.raises(ValueError):
            log1mexp(0.5)

    def test_vectorized(self):
        x = np.array([-1e-30, -1.0, -50.0, -800.0])
        out = log1mexp(x)
        assert out.shape == x.shape
        # Tiny x: log(1 - e^x) ~ log(-x); naive arithmetic would give -inf.
        assert out[0] == pytest.approx(math.log(1e-30), rel=1e-9)
        assert out[3] == pytest.approx(-math.exp(-800.0), abs=1e-300)

    @given(st.floats(min_value=-30.0, max_value=-1e-3))
    def test_matches_direct_formula(self, x):
        # The naive formula is itself accurate on this middle range.
        assert log1mexp(x) == pytest.approx(math.log1p(-math.exp(x)), rel=1e-9)


class TestLogDiffExp:
    def test_known_value(self):
        assert log_diff_exp(math.log(3.0), math.log(1.0)) == pytest.approx(math.log(2.0))

    def test_equal_inputs_give_neg_inf(self):
        assert log_diff_exp(1.5, 1.5) == -math.inf
        assert log_diff_exp(-math.inf, -math.inf) == -math.inf

    def test_b_above_a_rejected(self):
        with pytest.raises(ValueError):
            log_diff_exp(0.0, 1.0)

    def test_tiny_masses(self):
        # e^-2000 - e^-2001 in log space, far below the double floor.
        out = log_diff_exp(-2000.0, -2001.0)
        assert out == pytest.approx(-2000.0 + math.log1p(-math.exp(-1.0)), rel=1e-12)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=0.001, max_value=50.0),
    )
    def test_round_trip(self, b, gap):
        a = b + gap
        assert math.exp(log_diff_exp(a, b)) == pytest.approx(
            math.exp(a) - math.exp(b), rel=1e-9
        )


class TestLogAddExp:
    def test_doubling(self):
        assert log_add_exp(math.log(1.0), math.log(1.0)) == pytest.approx(math.log(2.0))

    def test_neg_inf_identity(self):
        assert log_add_exp(-math.inf, 0.3) == pytest.approx(0.3)

    def test_vectorized(self):
        out = log_add_exp(np.array([0.0, -math.inf]), np.array([0.0, -math.inf]))
        assert out[0] == pytest.approx(math.log(2.0))
        assert out[1] == -math.inf


class TestLogSumExp:
    @given(st.lists(st.floats(min_value=-800.0, max_value=800.0), min_size=1, max_size=64))
    def test_matches_scipy(self, values):
        a = np.array(values)
        assert log_sum_exp(a) == pytest.approx(float(logsumexp(a)), rel=1e-12, abs=1e-12)

    def test_random_inputs_match_scipy(self):
        rng = np.random.default_rng(0)
        for n in (1, 12, 200, 4096):
            a = rng.normal(scale=300.0, size=n)
            assert log_sum_exp(a) == pytest.approx(float(logsumexp(a)), rel=1e-12)

    def test_neg_inf_entries_are_zero_terms(self):
        a = np.array([-np.inf, -3.0, -np.inf, 1.5, -2000.0])
        assert log_sum_exp(a) == pytest.approx(float(logsumexp(a)), rel=1e-12)
        assert log_sum_exp(a) == pytest.approx(math.log(math.exp(-3.0) + math.exp(1.5)))

    def test_all_neg_inf(self):
        assert log_sum_exp(np.full(5, -np.inf)) == -math.inf
        assert log_sum_exp(np.array([])) == -math.inf

    def test_no_overflow_or_underflow(self):
        assert log_sum_exp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + math.log(2.0))
        assert log_sum_exp(np.array([-1e5, -1e5])) == pytest.approx(-1e5 + math.log(2.0))
