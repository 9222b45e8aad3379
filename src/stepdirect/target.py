"""Weighted-target contract and truncated base-distribution draws.

A weighted target bundles everything the generic sampler needs from one
distribution f(x) proportional to w(x) g(x): the log weight and its maximum,
the base distribution g, and a solver for the superlevel set
A_u = {x : log w(x) > log u + log c}. The solver returns an open window
(x1, x2) that contains A_u. On a continuous base each end is the outside
end of the solver's final bracket, where log w is at or below the
threshold, within a relative 1e-10 of the crossing. On integer support the
brackets step in whole units and are narrowed to one, reading log w only
at integers, so each end is an integer and the integers inside the window
are exactly those in A_u. The base distribution owns the support: given a
window it returns the window's log probability and draws from g truncated
to it, so every probability can stay on the log scale. The sampler draws x
on a stored window and keeps it only if w(x) > u c, so a window that is
slightly too wide costs a little acceptance but never exactness.

Targets whose log w is a fixed concave F plus a linear term, F(x) +
theta x, form one ``TiltedFamily`` per F: it owns F, its slopes, its base
and one table of F (``TiltedGrid``), which bounds log w at any tilt, and
its member at each theta (``TiltedMember``) finds the mode by
``concave_mode`` on first read. It also caches the cells of each tilt
bucket, which its members draw from.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import DomainError, EmptySetError, NonConvergenceError
from .logspace import log1mexp

__all__ = [
    "UniformBase",
    "GeometricBase",
    "TiltedGrid",
    "TiltedFamily",
    "TiltedMember",
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

# TiltedGrid.f_up sits this far, relative to 1 + |f|, above the chord
# bounds on F, for the rounding of the table and of log w between its points.
GRID_SLACK = 1e-9

# TiltedFamily.tabulate reads F at this many points per call, so an F of O(k)
# per point needs TABLE_BLOCK x k doubles of working memory.
TABLE_BLOCK = 256

# Tilt buckets (TiltedFamily.anchor): a bucket is BUCKET_ARC wide on the
# family's arc, in units of a member's scale, and a family keeps the cells
# of at most ANCHOR_CAP buckets, 50-75 KB each on the Gibbs families. A
# bucket's range of tilts is widened by BUCKET_SLACK (1 + |theta|) either
# side, for the rounding of the arc's two np.interp maps.
BUCKET_ARC = 0.5
ANCHOR_CAP = 64
BUCKET_SLACK = 1e-12

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
    """A fixed concave table of F, read as log w = F(x) + theta x at any tilt.

    ``x`` ascends and spans the support, and ``f`` is F at each x_i, finite
    but at the last point, which may be -inf (F(1) on the rho table). The
    table holds no tilt: ``bounds`` and ``peak`` take theta, and no array
    of tilted values is formed. ``bounds`` reads log w through the table,
    exactly at grid points, where f[i] + theta * x[i] must be, float for
    float, what the target's log_w returns.

    ``flat_tilts[i]`` = -(f[i+1] - f[i]) / (x[i+1] - x[i]) is the tilt under
    which the step from x_i to x_{i+1} is level; F is concave, so they
    ascend. On a step F lies above its chord and below both neighbouring
    chords extended (only the left one into f = -inf), and ``f_up[i]`` is
    f[i] raised by the largest gap between the two on the steps next to
    x_i, plus GRID_SLACK (1 + |f[i]|). Both are computed once from (x, f),
    never passed in. Raises DomainError where f is not finite or not concave.
    """

    x: np.ndarray
    f: np.ndarray
    flat_tilts: np.ndarray = field(init=False)
    f_up: np.ndarray = field(init=False)
    chords: np.ndarray = field(init=False)

    def __post_init__(self):
        x, f = np.asarray(self.x, dtype=float), np.asarray(self.f, dtype=float)
        if not (x.ndim == 1 and x.shape == f.shape and x.size >= 3 and np.all(x[1:] > x[:-1])):
            raise DomainError("a tilted grid needs ascending points x, at least three, with one f each")
        if not (np.isfinite(f[:-1]).all() and f[-1] < math.inf):
            raise DomainError("a tilted grid needs f finite at every point, or -inf at the last")
        h = x[1:] - x[:-1]
        flat_tilts = (f[:-1] - f[1:]) / h
        # The fall in slope at each point; the ends have no chord outside.
        drop = np.full(x.size, math.inf)
        np.subtract(flat_tilts[1:], flat_tilts[:-1], out=drop[1:-1])
        if not (drop >= 0.0).all():
            rise = x[(drop < 0.0).argmax()]
            raise DomainError(f"a tilted grid needs a concave f: its slope rises at x = {rise!r}")
        # The extended chords leave a step's chord at its two ends with
        # slopes drop_i and -drop_{i+1}, so they cross at the gap
        # h / (1 / drop_i + 1 / drop_{i+1}).
        with np.errstate(divide="ignore"):
            gap = h / (1.0 / drop[:-1] + 1.0 / drop[1:])
        ends = f.copy()
        if f[-1] == -math.inf:
            gap[-1] = 0.0
            ends[-1] = f[-2] - flat_tilts[-2] * h[-1]
        lift = np.append(gap, 0.0)
        np.maximum(lift[1:], gap, out=lift[1:])
        # f and f_up are the real and imaginary views of one complex array,
        # so that one np.interp reads both chords.
        chords = np.empty(x.size, dtype=complex)
        chords.real = f
        chords.imag = ends + lift + GRID_SLACK * (1.0 + np.abs(ends))
        values = (("x", x), ("f", chords.real), ("flat_tilts", flat_tilts), ("f_up", chords.imag), ("chords", chords))
        for name, value in values:
            object.__setattr__(self, name, value)

    def bounds(self, x, theta: float):
        """(lo, hi) at points x under tilt theta: the chords of f and of f_up,
        read by one np.interp of ``chords``, each plus theta x. lo <= log w
        <= hi, lo up to the rounding of log w, and lo is log w itself at
        grid points."""
        tilt = theta * x
        both = np.interp(x, self.x, self.chords)
        return both.real + tilt, both.imag + tilt

    def peak(self, theta: float) -> int:
        """Index of the largest tilted value f + theta x, the first of equal
        ones, as np.argmax gives it.

        The steps still rising under theta are those whose flat tilt is
        below it, so one searchsorted counts them. Rounding can make a step
        between the tilted values disagree in sign with its flat tilt, so
        the peak is taken among the few tilted values around that count.
        """
        i = int(self.flat_tilts.searchsorted(theta))
        near = slice(max(i - PEAK_REACH, 0), i + PEAK_REACH + 1)
        return near.start + int((self.f[near] + theta * self.x[near]).argmax())


@dataclass
class WeightedTarget:
    """Everything the direct sampler needs from one univariate target.

    ``log_w`` must accept numpy arrays and Python floats (a continuous
    extension is expected even for integer support) and attain its
    maximum ``log_c`` at ``x_mode``. The support is the base's: continuous
    on [base.lo, base.hi] or the integers {0, 1, ...}. Instances are
    immutable in practice and safe to share.

    On integer support c is the largest w on the support, not that of the
    extension: given the extension's mode, the target reads log w at
    floor(x_mode) and ceil(x_mode) in one call and keeps the first
    maximizer and its log w as ``x_mode`` and ``log_c``, so that, w being
    unimodal, every w(k) / c is at most 1 and A_u empties at u = 1.
    Raises DomainError where neither reads finite.

    ``log_w_bounds(x)``, which ``TiltedFamily.target`` gives, reads (lo, hi)
    with lo <= log w <= hi: ``level_envelope`` then reads it, not ``log_w``.
    A member of a TiltedFamily also carries the ``family`` and its tilt
    ``theta``, by which ``build_envelope`` finds the cells of its bucket.
    """

    log_w: Callable[[np.ndarray], np.ndarray]
    x_mode: float
    log_c: float
    base: UniformBase | GeometricBase
    name: str = ""
    log_w_bounds: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    family: TiltedFamily | None = field(default=None, repr=False)
    theta: float = 0.0

    def __post_init__(self):
        if not self.base.discrete:
            return
        k = np.array([math.floor(self.x_mode), math.ceil(self.x_mode)], dtype=float)
        log_w = np.asarray(self.log_w(k), dtype=float)
        top = int(np.argmax(np.where(np.isfinite(log_w), log_w, -np.inf)))
        if not math.isfinite(log_w[top]):
            raise DomainError(
                f"{self.name or 'target'}: log w is not finite at either integer next to x_mode = {self.x_mode!r}"
            )
        self.x_mode, self.log_c = float(k[top]), float(log_w[top])

    @property
    def discrete(self) -> bool:
        return self.base.discrete

    # -- superlevel-set endpoints ----------------------------------------

    def interval_endpoints(self, log_threshold, outside=None):
        """Endpoints (x1, x2) of {x : log_w(x) > log_threshold}.

        Thresholds are passed on the log scale; -inf yields the full
        support. Accepts scalars or arrays. When the threshold reaches
        log_c the set is empty and the window collapses onto x_mode. w is
        unimodal, so the set is one interval with one crossing on each side
        of the mode, and both sides are solved together: one ``log_w`` call
        at the outside ends of all brackets, then one ``_bisect_crossing``
        loop. On integer support each end is an integer, and the integers
        strictly inside (x1, x2) are exactly those k with log w(k) above the
        threshold.

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
        lo, hi, discrete = self.base.lo, self.base.hi, self.discrete
        # For integer support the window is the open interval's interior, so
        # a boundary point with w above the threshold must sit strictly
        # inside: the open end lies one unit past it.
        pad = 1.0 if discrete else 0.0
        x1 = np.full(thr.shape, self.x_mode)
        x2 = x1.copy()
        full = np.isneginf(thr)
        x1[full] = lo - pad
        x2[full] = hi + pad
        work = (thr < self.log_c) & ~full
        n = int(np.count_nonzero(work))
        if n:
            # Brackets [:n] are the side below the mode, [n:] the side above it.
            t = thr[work]
            t = np.concatenate((t, t))
            inf_hi = hi == math.inf
            top = max(2.0 * abs(self.x_mode), self.x_mode + 8.0) if inf_hi else hi
            o = np.empty(2 * n)
            o[:n], o[n:] = lo, top
            known = np.zeros(2 * n, dtype=bool)
            if outside is not None:
                start = np.concatenate(
                    [np.asarray(s, float)[work] if np.ndim(s) else np.full(n, float(s)) for s in outside]
                )
                known = (start > lo) & (start < hi)
                o[known] = start[known]
            log_ends = self.log_w(np.concatenate(((lo, top), o[known])))
            log_o = np.empty(2 * n)
            log_o[:n], log_o[n:] = log_ends[0], log_ends[1]
            log_o[known] = log_ends[2:]
            grow = ~known
            grow[: n if inf_hi else 2 * n] = False
            for _ in range(200):
                open_mask = grow & (log_o > t)
                if not np.any(open_mask):
                    break
                o[open_mask] = 2.0 * o[open_mask] + 8.0
                log_o[open_mask] = self.log_w(o[open_mask])
            else:
                raise DomainError("failed to bracket the right superlevel endpoint")
            solve = ~(log_o > t)
            side = np.empty(2 * n)
            side[:n], side[n:] = lo - pad, hi + pad
            if np.any(solve):
                side[solve] = _bisect_crossing(
                    self.log_w, t[solve], o[solve], self.x_mode, log_o[solve], self.log_c, discrete
                )
            x1[work], x2[work] = side[:n], side[n:]
        if scalar:
            return float(x1[0]), float(x2[0])
        return x1, x2

    # -- probabilities and draws -----------------------------------------

    def superlevel(self, u, outside=None):
        """(x1, x2, log_p): an open window (x1, x2) that contains A_u =
        {x : w(x) > u c}, and its log base probability, from one endpoint
        solve. log w is at or below log u + log c at each interior end. On
        a continuous base the window reaches past A_u by at most one solver
        tolerance; on integer support its ends are integers and the
        integers inside it are exactly A_u, so log_p is log P(A_u).
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
        """log base probability of the window superlevel(u) returns: on a
        continuous base an upper bound on log P(A_u), by the mass within
        one solver tolerance of its ends, and log P(A_u) on integer
        support."""
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


@dataclass(frozen=True)
class TiltedFamily:
    """The targets log w = F(x) + theta x, one per tilt theta, of one
    concave F tabulated at fixed points x (``table``, a TiltedGrid), on one
    shared ``base``, Uniform(x[0], x[-1]); every member reads the one table.

    ``log_w(x, theta)`` is F(x) + theta x, vectorized over x and a float for
    a float, with table.f = log_w(table.x, 0) float for float, and
    ``slope(x, theta)`` is (F'(x) + theta, F''(x)); a member passes theta
    by name. Its mode search (``TiltedMember``), concave_mode from
    table.peak(theta), runs on [x[0], min(x[-1], mode_hi)], allowing
    ``slack`` for rounding at x[0].

    Tilt buckets: the tilts within the table's flat tilts fall into buckets
    BUCKET_ARC wide on the ``arc``, each with one anchor tilt, a pure
    function of theta (``anchor``). ``anchors`` caches what is built from
    each anchor's member, the cells its bucket's members draw from
    (``stepfn.tilt_bucket``), on first use, for at most ANCHOR_CAP buckets.
    """

    log_w: Callable
    slope: Callable
    table: TiltedGrid
    mode_hi: float = math.inf
    slack: float = 0.0
    anchors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    @cached_property
    def base(self) -> UniformBase:
        return UniformBase(self.table.x[0], self.table.x[-1])

    @cached_property
    def arc(self) -> tuple[np.ndarray, np.ndarray]:
        """(tau, s): the finite flat tilts of the table's steps that end at
        or below mode_hi, where those members' modes lie, ascending, and the
        arc length at each, s_i = sum_{j<i} sqrt((x_{j+1} - x_j)(tau_{j+1} -
        tau_j)). A member's scale is about 1 / sqrt(-F'') = sqrt(dx / dtau)
        at its mode, so s measures tilts in units of it."""
        x, tau = self.table.x, self.table.flat_tilts
        tau = tau[(x[1:] <= self.mode_hi) & np.isfinite(tau)]
        s = np.zeros(tau.size)
        np.sqrt((x[1 : tau.size] - x[: tau.size - 1]) * (tau[1:] - tau[:-1])).cumsum(out=s[1:])
        return tau, s

    def anchor(self, theta: float, build: Callable[[WeightedTarget, tuple[float, float]], object]):
        """(theta_k, build(member at theta_k, shifts)) for theta's bucket k,
        or None where theta lies outside the flat tilts (or is NaN).

        k = round(s(theta) / BUCKET_ARC) and theta_k = s^-1(k BUCKET_ARC),
        both read off ``arc`` by np.interp, so what is drawn never depends
        on what the cache holds. ``shifts`` = (lo, hi) bounds theta' -
        theta_k over the bucket's tilts theta', s^-1((k -/+ 1/2) BUCKET_ARC)
        - theta_k widened by BUCKET_SLACK (1 + |theta_k|); the caller checks
        its own shift against it. Each bucket is built once while cached;
        past ANCHOR_CAP buckets the least recently used is dropped. A lock
        guards the cache, which threads sharing the family share.
        """
        tau, s = self.arc
        if not tau[0] <= theta <= tau[-1]:
            return None
        k = round(float(np.interp(theta, tau, s)) / BUCKET_ARC)
        with self._lock:
            hit = self.anchors.pop(k, None)
            if hit is None:
                if len(self.anchors) >= ANCHOR_CAP:
                    del self.anchors[next(iter(self.anchors))]
                theta_k, lo, hi = (float(t) for t in np.interp(np.array([k, k - 0.5, k + 0.5]) * BUCKET_ARC, s, tau))
                slack = BUCKET_SLACK * (1.0 + abs(theta_k))
                shifts = (lo - theta_k - slack, hi - theta_k + slack)
                hit = theta_k, build(self.target(theta_k, f"anchor {k}"), shifts)
            self.anchors[k] = hit
        return hit

    @classmethod
    def tabulate(cls, log_w, slope, x, **shape) -> TiltedFamily:
        """The family with F tabulated at the points x, TABLE_BLOCK per call."""
        f = [log_w(x[i : i + TABLE_BLOCK], 0.0) for i in range(0, x.size, TABLE_BLOCK)]
        return cls(log_w, slope, TiltedGrid(x, np.concatenate(f)), **shape)

    def target(self, theta: float, name: str) -> TiltedMember:
        """The member at tilt theta: log_w, slope and the table's bounds,
        each with theta bound, and its mode and log c on first read."""
        theta = float(theta)
        member = TiltedMember.__new__(TiltedMember)
        vars(member).update(
            log_w=partial(self.log_w, theta=theta),
            base=self.base,
            name=name,
            log_w_bounds=partial(self.table.bounds, theta=theta),
            family=self,
            theta=theta,
        )
        return member


@dataclass
class TiltedMember(WeightedTarget):
    """A member of a TiltedFamily (``TiltedFamily.target``), whose
    ``x_mode`` and ``log_c`` are found on first read, not before: a Gibbs
    step that draws from its tilt bucket's cells, under their own log c,
    never reads them. Built with every field given (``dataclasses.replace``
    does so), it is a WeightedTarget like any other.

    The mode search is concave_mode from table.peak(theta) on [x[0],
    min(x[-1], mode_hi)], allowing the family's ``slack`` for rounding at
    x[0]. Reading the mode raises DomainError where w still rises at a
    mode_hi inside the support, as the mode then lies past it.
    """

    def __getattr__(self, name: str):
        # Called only for attributes not set: x_mode and log_c, before their first read.
        if name not in ("x_mode", "log_c"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        family, theta, base = self.family, self.theta, self.base
        hi, slope = min(base.hi, family.mode_hi), partial(family.slope, theta=theta)
        x_mode = concave_mode(slope, base.lo, hi, family.table.x[family.table.peak(theta)], family.slack)
        if x_mode == hi < base.hi and slope(hi)[0] > 0.0:
            raise DomainError(
                f"{self.name}: at theta = {theta!r} log w still rises at mode_hi = {hi!r}, so its mode lies past it"
            )
        self.x_mode, self.log_c = x_mode, family.log_w(x_mode, theta=theta)
        return getattr(self, name)


def concave_mode(slope, lo: float, hi: float, x0: float | None = None, slack: float = 0.0) -> float:
    """Maximizer on [lo, hi] of a log weight whose derivative decreases.

    ``slope(x)`` returns (g, h): the first and second derivatives of log w
    at x. The mode is lo where g(lo) <= slack, a bound on the rounding of
    g(lo), hi where g(hi) >= 0, and the root of g otherwise, found by Newton
    steps from x0 (the midpoint if None), safeguarded as in Numerical
    Recipes' rtsafe: the bracket [a, b] keeps g(a) > 0 > g(b), and a Newton
    step that leaves it, or is not below half the last step, is replaced by
    bisecting it. Stops once a step is at most MODE_TOL (1 + |x|).
    """
    if slope(lo)[0] <= slack:
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


def _bisect_crossing(log_w, thr, outside, inside, log_w_outside, log_w_inside, discrete=False):
    """Points where log_w crosses thr, bracketed by outside and inside points.

    Vectorized over thr: log_w is at or below thr at ``outside`` and above
    it at ``inside``, on either side of the mode; ``log_w_outside`` and
    ``log_w_inside`` are log_w there. Illinois regula falsi: each step
    evaluates the secant point of the bracket [a, b], or its midpoint where
    that point is not finite or not strictly inside (log_w may be -inf at
    an end), and makes it the new end b. The old b becomes a when the
    crossing lies between the two; otherwise a stays and its distance
    log_w - thr is halved, so a fixed end cannot stall the secant.

    On a continuous base the loop stops once every bracket has |inside -
    outside| <= ENDPOINT_TOL * (1 + |inside|) and returns each bracket's
    outside end, where log_w is at or below thr, so the window the ends
    bound contains the superlevel set. On integer support (``discrete``)
    the ends are integers and each step is rounded up to whole units, so
    log_w is read only at integers (near a large mode its continuous
    extension can round below a threshold that the integers on both sides
    are above), and the loop stops once every bracket is one unit wide:
    for a unimodal w the integers between the two ends of a window are
    exactly those above thr. Raises NonConvergenceError where a bracket
    on integer support is wider after the 200 steps.
    """
    a = outside
    b = inside
    g_a = log_w_outside - thr
    g_b = log_w_inside - thr
    b_above = np.ones(thr.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            d = b - a
            if discrete:
                done = np.all(np.abs(d) <= 1.0)
            else:
                done = np.all(np.abs(d) <= ENDPOINT_TOL * (1.0 + np.abs(np.where(b_above, b, a))))
            if done:
                break
            # The secant point is b - t d; t outside (0, 1), or NaN, bisects.
            t = g_b / (g_b - g_a)
            step = np.where((t > 0.0) & (t < 1.0), t, 0.5) * d
            if discrete:
                step = np.sign(d) * np.ceil(np.abs(step))
            x = b - step
            g_x = log_w(x) - thr
            x_above = g_x > 0.0
            crossed = x_above != b_above
            a = np.where(crossed, b, a)
            g_a = np.where(crossed, g_b, 0.5 * g_a)
            b, g_b, b_above = x, g_x, x_above
    if discrete and not np.all(np.abs(b - a) <= 1.0):
        raise NonConvergenceError(f"endpoint brackets still hold up to {np.nanmax(np.abs(b - a)) - 1.0:.3g} integers")
    return np.where(b_above, a, b)
