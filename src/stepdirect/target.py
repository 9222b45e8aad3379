"""Weighted-target contract and truncated base-distribution draws.

A weighted target bundles everything the generic sampler needs from one
distribution f(x) proportional to w(x) g(x): the log weight and its maximum,
the base distribution g, and a solver for the superlevel set
A_u = {x : log w(x) > log u + log c}. The solver returns an open window
(x1, x2) that contains A_u: each end is the outside end of the solver's
final bracket, where log w is at or below the threshold. The base
distribution owns the support: given a window it returns the window's log
probability and draws from g truncated to it, so every probability can
stay on the log scale. The sampler draws x on a stored window and keeps it
only if w(x) > u c, so a window that is slightly too wide costs a little
acceptance but never exactness.

A target whose log w is a fixed function plus a linear term, F(x) + theta
x, may also carry F tabulated on a fixed grid together with theta
(``TiltedGrid``, on ``WeightedTarget.grid``), and ``concave_mode`` finds
the mode of a log w with decreasing derivative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EmptySetError, NonConvergenceError
from .logspace import log1mexp

__all__ = [
    "UniformBase",
    "GeometricBase",
    "TiltedGrid",
    "WeightedTarget",
    "concave_mode",
    "integer_window",
]

# Relative stop of the superlevel endpoint solver: a bracket is done once
# |inside - outside| <= ENDPOINT_TOL * (1 + |inside|). Relative, because an
# absolute width of 1e-10 is out of reach once |x| >~ 1e6, where adjacent
# doubles lie ~1.2e-10 apart.
ENDPOINT_TOL = 1e-10

# Relative stop of concave_mode: a Newton or bisection step of at most
# MODE_TOL * (1 + |x|) ends the search.
MODE_TOL = 1e-14
MODE_MAX_STEPS = 500

# TiltedGrid.peak compares the tilted values this many points either side
# of the step where its binary search on the flat tilts lands.
PEAK_REACH = 2


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
    """Uniform base distribution on a finite interval [lo, hi]."""

    discrete = False

    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("UniformBase requires finite ends")
        if not lo < hi:
            raise DomainError("UniformBase requires lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        self._log_width = math.log(hi - lo)

    def log_prob(self, x1, x2):
        """log P(x1 < X < x2) with endpoints inside the support."""
        # fmax maps a width that is negative or NaN to 0, whose log is -inf.
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(np.fmax(np.subtract(x2, x1, dtype=float), 0.0)) - self._log_width
        return out if out.ndim else float(out)

    def truncated_draw(self, x1, x2, v):
        """Inverse-CDF draw restricted to (x1, x2); uniform stays uniform."""
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        if np.any(x2 <= x1):
            raise EmptySetError("A_u has zero base mass")
        return x1 + (x2 - x1) * v


class GeometricBase:
    """Geometric base on {0, 1, ...} with success probability p.

    Survival values (x+1) log(1-p) are exact linear expressions, so window
    probabilities remain accurate for masses like e^(-2873).
    """

    discrete = True
    lo = 0.0
    hi = math.inf

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise DomainError("GeometricBase requires 0 < p < 1")
        self.p = float(p)
        self.log_q = math.log1p(-p)

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

    def log_prob(self, x1, x2):
        """log P(x1 < X < x2): the mass of the integers strictly inside."""
        lo, hi = integer_window(x1, x2)
        span = np.where(hi >= lo, hi - lo + 1.0, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(np.isinf(span), 0.0, log1mexp(np.minimum(span * self.log_q, 0.0)))
            out = np.where(span > 0, lo * self.log_q + tail, -np.inf)
        return out if out.ndim else float(out)

    def truncated_draw(self, x1, x2, v):
        """Inverse-CDF draw from the geometric restricted to the integers
        strictly inside (x1, x2)."""
        lo, hi = integer_window(x1, x2)
        if np.any(lo > hi):
            raise EmptySetError("A_u contains no support points")
        m = hi - lo
        # mass of the window relative to q^lo: 1 - q^(m+1)
        c = np.where(np.isinf(m), 1.0, -np.expm1(np.minimum((m + 1.0) * self.log_q, 0.0)))
        g = np.ceil(np.log1p(-v * c) / self.log_q - 1.0)
        g = np.clip(g, 0.0, m)
        out = lo + g
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class TiltedGrid:
    """log w on fixed points as a fixed table plus a tilt: f_i + theta x_i.

    ``x`` ascends and spans the support, and ``f`` is the fixed part of
    log w at each x_i; (x, f) is computed once, and only ``theta`` changes
    from one target to the next (``tilted``). No array of tilted values is
    formed: a reader takes f[i] + theta * x[i] at the indices it uses
    (``log_w_at``), which must be, float for float, what the target's
    log_w returns at x[i].

    ``flat_tilts[i]`` is the tilt -(f[i+1] - f[i]) / (x[i+1] - x[i]) under
    which the step from x_i to x_{i+1} is level. Left out, it is computed
    from (x, f); ``tilted`` passes it on, so a tilt costs no O(n) work. For
    a concave f the flat tilts ascend, and ``peak`` finds the largest
    tilted value from them by one binary search.
    """

    x: np.ndarray
    f: np.ndarray
    theta: float = 0.0
    flat_tilts: np.ndarray | None = None

    def __post_init__(self):
        if self.flat_tilts is None:
            x, f = np.asarray(self.x, dtype=float), np.asarray(self.f, dtype=float)
            if not (x.ndim == 1 and x.shape == f.shape and x.size >= 2 and np.all(x[1:] > x[:-1])):
                raise DomainError("a tilted grid needs ascending points x, at least two, with one f each")
            # A step with f = -inf at both ends gets a NaN flat tilt.
            # searchsorted orders NaN above every number, so the tilts stay
            # in order where such steps lie at the right end, as on the rho
            # table next to rho = 1.
            with np.errstate(invalid="ignore"):
                flat_tilts = (f[:-1] - f[1:]) / (x[1:] - x[:-1])
            for name, value in (("x", x), ("f", f), ("flat_tilts", flat_tilts)):
                object.__setattr__(self, name, value)

    def tilted(self, theta: float) -> TiltedGrid:
        """The same table under tilt theta."""
        return TiltedGrid(self.x, self.f, float(theta), self.flat_tilts)

    def log_w_at(self, i):
        """log w at the grid points x[i]: f[i] + theta * x[i]."""
        return self.f[i] + self.theta * self.x[i]

    def peak(self) -> int:
        """Index of the largest tilted value, the first of equal ones, as
        np.argmax of f + theta x gives it where the tilted values rise to
        one peak and fall after it (f concave).

        The steps still rising under theta are those whose flat tilt is
        below it, so one searchsorted counts them. Rounding can leave
        neighbouring flat tilts out of order, or disagree with the sign of
        the step between the tilted values themselves, so the peak is then
        taken among the few tilted values around that count.
        """
        i = int(self.flat_tilts.searchsorted(self.theta))
        lo = max(i - PEAK_REACH, 0)
        return lo + int(self.log_w_at(slice(lo, i + PEAK_REACH + 1)).argmax())


@dataclass
class WeightedTarget:
    """Everything the direct sampler needs from one univariate target.

    ``log_w`` must accept numpy arrays and Python floats (a continuous
    extension is expected even for integer support) and attain its
    maximum ``log_c`` at ``x_mode``. The support is the base's: continuous
    on [base.lo, base.hi] or the integers {0, 1, ...}. Instances are
    immutable in practice and safe to share.

    ``grid``, when given, is a ``TiltedGrid``: log w at fixed points x_i
    spanning the support, read as f_i + theta x_i, each the value ``log_w``
    itself returns at x_i. ``level_knots`` then reads its points from the
    grid, at the indices it snaps to, instead of calling ``log_w``.
    """

    log_w: Callable[[np.ndarray], np.ndarray]
    x_mode: float
    log_c: float
    base: UniformBase | GeometricBase
    name: str = ""
    grid: TiltedGrid | None = None

    @property
    def discrete(self) -> bool:
        return self.base.discrete

    # -- superlevel-set endpoints ----------------------------------------

    def interval_endpoints(self, log_threshold, outside=None):
        """Endpoints (x1, x2) of {x : log_w(x) > log_threshold}.

        Thresholds are passed on the log scale; -inf yields the full
        support. Accepts scalars or arrays. When the threshold reaches
        log_c the interval collapses to (x_mode, x_mode). w is unimodal, so
        the set is one interval with one crossing on each side of the mode,
        and both sides are solved together: one ``log_w`` call at the
        outside ends of all brackets, then one ``_bisect_crossing`` loop.

        A bracket's outside end is the end of ``outside`` on its side where
        that lies strictly inside the support; ``outside`` optionally gives,
        per threshold, a window (x1, x2) with log w at or below the
        threshold at its ends, such as the stored window of a knot below u.
        Elsewhere it is the support end, and an infinite end is bracketed by
        doubling outward from the mode. Where w at the outside end is above
        the threshold the set reaches that end, and the support's open end
        is returned.
        """
        thr = np.atleast_1d(np.asarray(log_threshold, dtype=float))
        scalar = np.ndim(log_threshold) == 0
        lo, hi = self.base.lo, self.base.hi
        # Row 0 is the side below the mode, row 1 the side above it. For
        # integer support the window is the open interval's interior, so a
        # boundary point with w above the threshold must sit strictly
        # inside: the open end lies one unit past it.
        pad = 1.0 if self.discrete else 0.0
        end_open = np.array([[lo - pad], [hi + pad]])
        x = np.full((2,) + thr.shape, self.x_mode)
        full = np.isneginf(thr)
        x[:, full] = end_open
        work = (thr < self.log_c) & ~full
        if np.any(work):
            t = np.broadcast_to(thr[work], (2, np.count_nonzero(work)))
            inf_hi = hi == math.inf
            top = max(2.0 * abs(self.x_mode), self.x_mode + 8.0) if inf_hi else hi
            ends = np.array([lo, top])
            o = np.repeat(ends[:, None], t.shape[1], axis=1)
            known = np.zeros(t.shape, dtype=bool)
            if outside is not None:
                start = np.stack([np.broadcast_to(np.asarray(s, float), thr.shape)[work] for s in outside])
                known = (start > lo) & (start < hi)
                o[known] = start[known]
            grow = ~known & np.array([[False], [inf_hi]])
            log_ends = self.log_w(np.concatenate((ends, o[known])))
            log_o = np.repeat(log_ends[:2, None], t.shape[1], axis=1)
            log_o[known] = log_ends[2:]
            for _ in range(200):
                open_mask = grow & (log_o > t)
                if not np.any(open_mask):
                    break
                o[open_mask] = 2.0 * o[open_mask] + 8.0
                log_o[open_mask] = self.log_w(o[open_mask])
            else:
                raise DomainError("failed to bracket the right superlevel endpoint")
            solve = ~(log_o > t)
            side = np.where(solve, o, end_open)
            if np.any(solve):
                side[solve] = _bisect_crossing(
                    self.log_w, t[solve], o[solve], self.x_mode, log_o[solve], self.log_c
                )
            x[:, work] = side
        x1, x2 = np.minimum(x[0], x[1]), np.maximum(x[0], x[1])
        if scalar:
            return float(x1[0]), float(x2[0])
        return x1, x2

    # -- probabilities and draws -----------------------------------------

    def superlevel(self, u, outside=None):
        """(x1, x2, log_p): an open window (x1, x2) that contains A_u =
        {x : w(x) > u c}, and its log base probability, from one endpoint
        solve. log w is at or below log u + log c at each interior end, and
        the window reaches past A_u by at most one solver tolerance.
        ``outside`` optionally gives windows known to contain A_u, such as
        the stored windows of u's pieces; their interior ends start the
        solve (see ``interval_endpoints``). Rejects u outside [0, 1], NaN
        included."""
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0) & (u <= 1)):
            raise DomainError("u must lie in [0, 1]")
        # log 0 = -inf selects the full support; a subnormal u keeps its own
        # threshold, which the sampler's accept test uses too.
        with np.errstate(divide="ignore"):
            thr = np.log(u) + self.log_c
        x1, x2 = self.interval_endpoints(np.where(u >= 1.0, np.inf, thr), outside)
        return x1, x2, self.base.log_prob(x1, x2)

    def log_prob_Au(self, u):
        """log base probability of the window superlevel(u) returns: an
        upper bound on log P(A_u), by the mass within one solver tolerance
        of its ends."""
        return self.superlevel(u)[2]

    def truncated_draw(self, u, rng):
        """One draw from the base distribution restricted to A_u."""
        v = rng.generator.uniform()
        out = self.truncated_draw_many(np.atleast_1d(float(u)), np.atleast_1d(v))
        return float(out[0])

    def truncated_draw_many(self, u, v):
        """Vectorized truncated draws given uniforms v, one per u."""
        x1, x2, _ = (np.atleast_1d(b) for b in self.superlevel(u))
        return np.atleast_1d(self.base.truncated_draw(x1, x2, np.asarray(v, dtype=float)))


def concave_mode(slope, lo: float, hi: float, x0: float | None = None) -> float:
    """Maximizer on [lo, hi] of a log weight whose derivative decreases.

    ``slope(x)`` returns (g, h): the first and second derivatives of log w
    at x. The mode is lo where g(lo) <= 0, hi where g(hi) >= 0, and the root
    of g otherwise. The root is found by Newton steps from x0 (the midpoint
    if None), safeguarded as in Numerical Recipes' rtsafe: the bracket
    [a, b] keeps g(a) > 0 > g(b), and a Newton step that leaves it, or is
    not below half the last step, is replaced by bisecting it. Stops once a
    step is at most MODE_TOL (1 + |x|).
    """
    if slope(lo)[0] <= 0.0:
        return float(lo)
    if slope(hi)[0] >= 0.0:
        return float(hi)
    a, b = float(lo), float(hi)
    x = 0.5 * (a + b) if x0 is None else min(max(float(x0), a), b)
    step = b - a
    for _ in range(MODE_MAX_STEPS):
        g, h = slope(x)
        if g > 0.0:
            a = x
        elif g < 0.0:
            b = x
        elif g == 0.0:
            return x
        else:
            raise DomainError(f"log w has no finite slope at {x!r}")
        step_old, step = step, (-g / h if h < 0.0 else math.inf)
        # A Newton step within tolerance ends the search even where it rounds
        # onto a bracket end; a larger one must stay inside and shrink.
        converged = abs(step) <= MODE_TOL * (1.0 + abs(x))
        if not converged and (not a < x + step < b or abs(step) > 0.5 * abs(step_old)):
            step = 0.5 * (a + b) - x
        x = min(max(x + step, a), b)
        if abs(step) <= MODE_TOL * (1.0 + abs(x)):
            return x
    raise NonConvergenceError(f"mode search did not converge in [{a!r}, {b!r}]")


def _bisect_crossing(log_w, thr, outside, inside, log_w_outside, log_w_inside):
    """Points where log_w crosses thr, bracketed by outside and inside points.

    Vectorized over thr: log_w is at or below thr at ``outside`` and above
    it at ``inside``, on either side of the mode; ``log_w_outside`` and
    ``log_w_inside`` are log_w there. Illinois regula falsi: each step
    evaluates the secant point of the bracket [a, b], or its midpoint where
    that point is not finite or not strictly inside (log_w may be -inf at
    an end), and makes it the new end b. The old b becomes a when the
    crossing lies between the two; otherwise a stays and its distance
    log_w - thr is halved, so a fixed end cannot stall the secant. Stops
    once every bracket has |inside - outside| <= ENDPOINT_TOL * (1 +
    |inside|) and returns each bracket's outside end, where log_w is at or
    below thr, so the window the ends bound contains the superlevel set.
    """
    a = np.broadcast_to(np.asarray(outside, dtype=float), thr.shape)
    b = np.broadcast_to(np.asarray(inside, dtype=float), thr.shape)
    g_a = log_w_outside - thr
    g_b = log_w_inside - thr
    b_above = np.ones(thr.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            d = b - a
            x_in = np.where(b_above, b, a)
            if np.all(np.abs(d) <= ENDPOINT_TOL * (1.0 + np.abs(x_in))):
                break
            # The secant point is b - t d; t outside (0, 1), or NaN, bisects.
            t = g_b / (g_b - g_a)
            x = b - np.where((t > 0.0) & (t < 1.0), t, 0.5) * d
            g_x = log_w(x) - thr
            x_above = g_x > 0.0
            crossed = x_above != b_above
            a = np.where(crossed, b, a)
            g_a = np.where(crossed, g_b, 0.5 * g_a)
            b, g_b, b_above = x, g_x, x_above
    return np.where(b_above, a, b)
