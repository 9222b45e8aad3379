"""Weighted-target contract and truncated base-distribution draws.

A weighted target bundles everything the generic sampler needs from one
distribution f(x) proportional to w(x) g(x): the log weight and its maximum,
the base distribution g, and a solver for the superlevel-set interval
{x : log w(x) > threshold}. Base distributions expose log CDF/survival
values and truncated inverse-CDF draws so every probability can stay on the
log scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EmptySetError
from .logspace import log1mexp

__all__ = [
    "ContinuousInterval",
    "NonnegativeIntegers",
    "UniformBase",
    "GeometricBase",
    "WeightedTarget",
    "integer_window",
]

# Absolute bracket width at which the superlevel endpoint bisection stops.
ENDPOINT_TOL = 1e-10


@dataclass(frozen=True)
class ContinuousInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError("continuous support requires lo < hi")


@dataclass(frozen=True)
class NonnegativeIntegers:
    lo: float = 0.0
    hi: float = math.inf


def integer_window(x1, x2):
    """Integers strictly inside (x1, x2), clipped to {0, 1, ...}.

    Returns (lo, hi) inclusive; the window is empty when lo > hi.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x2 < x1):
        raise DomainError("integer_window requires x1 <= x2")
    lo = np.maximum(np.floor(x1) + 1.0, 0.0)
    hi = np.where(np.isinf(x2), np.inf, np.ceil(x2) - 1.0)
    if lo.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


class UniformBase:
    """Uniform base distribution on [lo, hi]."""

    discrete = False

    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        if not lo < hi:
            raise DomainError("UniformBase requires lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        self._log_width = math.log(hi - lo)

    def log_cdf(self, x):
        z = np.clip((np.asarray(x, float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        with np.errstate(divide="ignore"):
            return np.log(z)

    def log_sf(self, x):
        z = np.clip((self.hi - np.asarray(x, float)) / (self.hi - self.lo), 0.0, 1.0)
        with np.errstate(divide="ignore"):
            return np.log(z)

    def quantile(self, phi):
        return self.lo + (self.hi - self.lo) * np.asarray(phi, float)

    def log_prob_interval(self, x1, x2):
        """log P(x1 < X < x2) with endpoints inside the support."""
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x2 > x1, np.log(np.maximum(x2 - x1, 0.0)) - self._log_width, -np.inf)
        return out if out.ndim else float(out)

    def truncated_draw(self, x1, x2, v):
        """Inverse-CDF draw restricted to (x1, x2); uniform stays uniform."""
        return np.asarray(x1, float) + (np.asarray(x2, float) - np.asarray(x1, float)) * v


class GeometricBase:
    """Geometric base on {0, 1, ...} with success probability p.

    Survival values (x+1) log(1-p) are exact linear expressions, so window
    probabilities remain accurate for masses like e^(-2873).
    """

    discrete = True

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise DomainError("GeometricBase requires 0 < p < 1")
        self.p = float(p)
        self.log_q = math.log1p(-p)

    def log_cdf(self, x):
        x = np.floor(np.asarray(x, float))
        with np.errstate(divide="ignore"):
            out = np.where(x < 0, -np.inf, log1mexp(np.where(x < 0, 0.0, (x + 1.0) * self.log_q)))
        return out if out.ndim else float(out)

    def log_sf(self, x):
        """log P(X > x) = (floor(x)+1) log(1-p)."""
        x = np.floor(np.asarray(x, float))
        out = np.where(np.isinf(x) & (x > 0), -np.inf, np.where(x < 0, 0.0, (x + 1.0) * self.log_q))
        return out if out.ndim else float(out)

    def quantile(self, phi):
        """Smallest x with CDF(x) >= phi."""
        phi = np.asarray(phi, float)
        if np.any((phi <= 0) | (phi >= 1)):
            raise DomainError("quantile requires phi in (0, 1)")
        x = np.ceil(np.log1p(-phi) / self.log_q - 1.0)
        out = np.maximum(x, 0.0)
        return out if out.ndim else float(out)

    def log_prob_window(self, lo, hi):
        """log P(lo <= X <= hi) for an inclusive integer window."""
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        span = np.where(hi >= lo, hi - lo + 1.0, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(np.isinf(span), 0.0, log1mexp(np.minimum(span * self.log_q, 0.0)))
            out = np.where(span > 0, lo * self.log_q + tail, -np.inf)
        return out if out.ndim else float(out)

    def truncated_draw(self, lo, hi, v):
        """Inverse-CDF draw from the geometric restricted to {lo, ..., hi}."""
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        m = hi - lo
        # mass of the window relative to q^lo: 1 - q^(m+1)
        c = np.where(np.isinf(m), 1.0, -np.expm1(np.minimum((m + 1.0) * self.log_q, 0.0)))
        g = np.ceil(np.log1p(-v * c) / self.log_q - 1.0)
        g = np.clip(g, 0.0, m)
        out = lo + g
        return out if out.ndim else float(out)


@dataclass
class WeightedTarget:
    """Everything the direct sampler needs from one univariate target.

    ``log_w`` must accept numpy arrays (a continuous extension is expected
    even for integer support) and attain its maximum ``log_c`` at
    ``x_mode``. Instances are immutable in practice and safe to share.
    """

    support: ContinuousInterval | NonnegativeIntegers
    log_w: Callable[[np.ndarray], np.ndarray]
    x_mode: float
    log_c: float
    base: UniformBase | GeometricBase
    name: str = ""

    @property
    def discrete(self) -> bool:
        return isinstance(self.support, NonnegativeIntegers)

    # -- superlevel-set endpoints ----------------------------------------

    def interval_endpoints(self, log_threshold):
        """Endpoints (x1, x2) of {x : log_w(x) > log_threshold}.

        Thresholds are passed on the log scale; -inf yields the full
        support. Accepts scalars or arrays. When the threshold reaches
        log_c the interval collapses to (x_mode, x_mode).
        """
        thr = np.atleast_1d(np.asarray(log_threshold, dtype=float))
        scalar = np.ndim(log_threshold) == 0
        lo = float(self.support.lo)
        hi = float(self.support.hi)
        x1 = np.full(thr.shape, self.x_mode)
        x2 = np.full(thr.shape, self.x_mode)
        # For integer support the window is the open interval's interior, so
        # a boundary point with w above the threshold must sit strictly
        # inside: shift the endpoint one unit past it.
        lo_open = lo - 1.0 if self.discrete else lo
        hi_open = hi + 1.0 if (self.discrete and not math.isinf(hi)) else hi

        nonempty = thr < self.log_c
        full = np.isneginf(thr)
        x1[full] = lo_open
        x2[full] = hi_open
        work = nonempty & ~full
        if np.any(work):
            t = thr[work]
            x1[work] = self._solve_side(t, lo, lo_open)
            x2[work] = self._solve_side(t, hi, hi_open)
        x1, x2 = np.minimum(x1, x2), np.maximum(x1, x2)
        if scalar:
            return float(x1[0]), float(x2[0])
        return x1, x2

    def _solve_side(self, thr, end, end_open):
        """Crossings of thr between the mode and the support end ``end``.

        Where w at the end is already above thr the set reaches the end and
        ``end_open`` is returned. An infinite upper end is first bracketed
        by doubling outward from the mode.
        """
        if end == math.inf:
            outside = np.full(thr.shape, max(2.0 * abs(self.x_mode), self.x_mode + 8.0))
            for _ in range(200):
                open_mask = self.log_w(outside) > thr
                if not np.any(open_mask):
                    break
                outside[open_mask] = 2.0 * outside[open_mask] + 8.0
            else:
                raise DomainError("failed to bracket the right superlevel endpoint")
            return _bisect_crossing(self.log_w, thr, outside, self.x_mode)
        out = np.full(thr.shape, end_open)
        mask = ~(self.log_w(np.full(thr.shape, end)) > thr)
        if np.any(mask):
            out[mask] = _bisect_crossing(self.log_w, thr[mask], end, self.x_mode)
        return out

    # -- probabilities and draws -----------------------------------------

    def _window(self, u):
        """Bounds of A_u: (x1, x2) open, or on integer support the
        inclusive window (lo, hi), which is empty when lo > hi."""
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            thr = np.where(u > 0, np.log(np.maximum(u, np.finfo(float).tiny)) + self.log_c, -np.inf)
        thr = np.where(u >= 1.0, np.inf, thr)
        x1, x2 = self.interval_endpoints(thr)
        if self.discrete:
            return integer_window(x1, x2)
        return x1, x2

    def log_prob_Au(self, u):
        """log of the base-measure probability of {x : w(x) > u c}."""
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u > 1)):
            raise DomainError("u must lie in [0, 1]")
        lo, hi = self._window(u)
        if self.discrete:
            return self.base.log_prob_window(lo, hi)
        return self.base.log_prob_interval(lo, hi)

    def truncated_draw(self, u, rng):
        """One draw from the base distribution restricted to A_u."""
        v = rng.generator.uniform()
        out = self.truncated_draw_many(np.atleast_1d(float(u)), np.atleast_1d(v))
        return float(out[0])

    def truncated_draw_many(self, u, v):
        """Vectorized truncated draws given uniforms v, one per u."""
        lo, hi = (np.atleast_1d(b) for b in self._window(u))
        if self.discrete and np.any(lo > hi):
            raise EmptySetError("A_u contains no support points")
        if not self.discrete and np.any(hi <= lo):
            raise EmptySetError("A_u has zero base mass")
        return np.atleast_1d(self.base.truncated_draw(lo, hi, np.asarray(v, dtype=float)))


def _bisect_crossing(log_w, thr, outside, inside):
    """Points where log_w crosses thr, bracketed by outside and inside points.

    Vectorized over thr: log_w is at or below thr at ``outside`` and above
    it at ``inside``, on either side of the mode. Stops once every bracket
    is narrower than ENDPOINT_TOL and returns the bracket midpoints.
    """
    out_a = np.broadcast_to(np.asarray(outside, dtype=float), thr.shape)
    in_a = np.broadcast_to(np.asarray(inside, dtype=float), thr.shape)
    for _ in range(200):
        if np.max(np.abs(in_a - out_a)) <= ENDPOINT_TOL:
            break
        mid = 0.5 * (out_a + in_a)
        above = log_w(mid) > thr
        in_a = np.where(above, mid, in_a)
        out_a = np.where(above, out_a, mid)
    return 0.5 * (out_a + in_a)
