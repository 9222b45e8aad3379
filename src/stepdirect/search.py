"""Bracketed scalar bisection over monotone 0-to-1 step predicates.

The predicate must step from 0 at the lower bound to 1 at the upper bound;
the search halves the bracket at its arithmetic midpoint until the width
drops below the tolerance relative to the lower end, so one tolerance
serves brackets near zero and far from it alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import BracketError, DomainError, NonConvergenceError

__all__ = [
    "BisectionSpec",
    "BisectionResult",
    "bisect",
]

MAX_ITERATIONS = 10_000


@dataclass
class BisectionSpec:
    """Bracketed search problem for the first point where the predicate is 1.

    ``predicate(x_lo)`` must be falsy and ``predicate(x_hi)`` truthy; both
    are checked at construction unless ``check_bracket`` is False.
    """

    x_lo: float
    x_hi: float
    predicate: Callable[[float], bool]
    tolerance: float = 1e-12
    check_bracket: bool = True

    def __post_init__(self):
        if self.tolerance <= 0:
            raise DomainError("tolerance must be positive")
        if self.check_bracket:
            if self.predicate(self.x_lo):
                raise BracketError(f"predicate is 1 at lower bound {self.x_lo!r}")
            if not self.predicate(self.x_hi):
                raise BracketError(f"predicate is 0 at upper bound {self.x_hi!r}")


@dataclass
class BisectionResult:
    x: float
    x_lo: float
    x_hi: float
    iterations: int


def bisect(spec: BisectionSpec) -> BisectionResult:
    """Narrow the bracket until ``(x_hi - x_lo) / (1 + |x_lo|) <= tolerance``.

    Returns the final midpoint; the final bracket still satisfies
    ``predicate(x_lo) == 0`` and ``predicate(x_hi) == 1``.
    """
    lo, hi = spec.x_lo, spec.x_hi
    x = 0.5 * (lo + hi)
    iterations = 0
    while (hi - lo) / (1.0 + abs(lo)) > spec.tolerance:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise NonConvergenceError(
                f"bisection exceeded {MAX_ITERATIONS} iterations; "
                f"bracket [{lo!r}, {hi!r}]"
            )
        if spec.predicate(x):
            hi = x
        else:
            lo = x
        x = 0.5 * (lo + hi)
    return BisectionResult(x=x, x_lo=lo, x_hi=hi, iterations=iterations)
