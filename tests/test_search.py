from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stepdirect.errors import BracketError, DomainError
from stepdirect.search import BisectionSpec, bisect


class TestBisect:
    def test_finds_sqrt_two(self):
        spec = BisectionSpec(x_lo=0.0, x_hi=2.0, predicate=lambda x: x * x > 2.0)
        res = bisect(spec)
        assert res.x == pytest.approx(math.sqrt(2.0), abs=1e-11)
        assert not spec.predicate(res.x_lo)
        assert spec.predicate(res.x_hi)

    def test_tolerance_is_relative_to_lower_end(self):
        # Far from zero the bracket only has to shrink to tolerance * (1 + |lo|).
        spec = BisectionSpec(x_lo=1e6, x_hi=2e6, predicate=lambda x: x > 1.5e6, tolerance=1e-9)
        res = bisect(spec)
        assert (res.x_hi - res.x_lo) <= 1e-9 * (1.0 + abs(res.x_lo))
        assert res.x_lo <= 1.5e6 < res.x_hi
        # 1e6 / 2^k <= 1e-9 * (1 + 1.5e6) first holds at k = 30.
        assert res.iterations == 30

    def test_bad_bracket_low(self):
        with pytest.raises(BracketError):
            BisectionSpec(x_lo=0.0, x_hi=1.0, predicate=lambda x: True)

    def test_bad_bracket_high(self):
        with pytest.raises(BracketError):
            BisectionSpec(x_lo=0.0, x_hi=1.0, predicate=lambda x: False)

    def test_bracket_check_can_be_skipped(self):
        spec = BisectionSpec(
            x_lo=0.0, x_hi=1.0, predicate=lambda x: x > 0.5, check_bracket=False
        )
        assert bisect(spec).x == pytest.approx(0.5, abs=1e-11)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(DomainError):
            BisectionSpec(x_lo=0.0, x_hi=1.0, predicate=lambda x: x > 0.5, tolerance=0.0)

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_locates_arbitrary_threshold(self, c):
        spec = BisectionSpec(x_lo=0.0, x_hi=1.0, predicate=lambda x: x > c, tolerance=1e-10)
        assert bisect(spec).x == pytest.approx(c, abs=1e-9)
