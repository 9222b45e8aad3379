"""Step-function envelope for the descent of P(A_u).

Builds the piecewise-constant unnormalized density over u together with
its piecewise-linear CDF and quantile function. All knot probabilities
are carried as log values. Each knot u_j also carries the window
(x1_j, x2_j) that its height is the base mass of; the window contains A_u
for every u on the piece [u_j, u_{j+1}), so the sampler can draw x on it
without solving for A_u. Each piece also carries a lower bound on
P(A_u) over the piece, from which the rejection bound is computed. An
envelope starts at a head knot u_0 = 0 whose window is the whole support,
and one np.interp map, read either way, gives its CDF and quantile.

Knots come from one of three rules. The paper's greedy rectangle
splitting and equal spacing place knots in u over a descent window
[u_lo, u_hi], which find_u_lo and find_u_hi give in closed form, and
solve each knot for its window; the sampler prepends the head knot. Level
knots (``level_knots``, continuous bases only) need no solve: log w is
tabulated once on a grid of x around the mode, and the knots are the
grid's levels w(x_i) / c, so the outer grid bracket of each level is a
window that contains A_u for every u on its piece (the table or ziggurat
construction for unimodal densities).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketError, DegenerateTargetError, DomainError, ModeError
from .logspace import log_diff_exp, log_sum_exp
# bisect is not called here, but stays importable from this module:
# perfbench/spans.py wraps it by name.
from .search import bisect  # noqa: F401
from .target import WeightedTarget

__all__ = [
    "KnotTable",
    "StepApprox",
    "MIDPOINT_KINDS",
    "check_knot_rule",
    "find_u_lo",
    "find_u_hi",
    "select_knots",
    "equal_spaced_knots",
    "level_knots",
    "build_step",
    "step_cdf",
    "step_quantile",
    "step_quantile_many",
    "step_logpdf_unnorm",
    "total_rect_area",
    "log_total_rect_area",
    "insert_knot",
    "knot_table_rows",
]

MIDPOINT_KINDS = ("arithmetic", "geometric", "hybrid")

# Floor of find_u_lo: the greedy and equal knots start no lower than this,
# or than half of u_hi where A_u empties below it on integer support. The
# head knot at u = 0 carries P(A_0), so the envelope dominates P(A_u)
# below the floor too.
DESCENT_TOL = 1e-10

# Level tables (see level_knots). 64 cells per scale left the rho Gibbs
# step above its 1% rejection gate; 128 keeps it near 0.4%.
SCALE_PROBES = 60
SCALE_DROP = 0.5
LEVEL_CELLS = 128
LEVEL_SPAN = 7
LEVEL_GROWTH = 1.15
# A target's grid stands in for log_w only where its spacing, next to the
# mode and one scale out on each side, is at most this share of a level
# cell; snapping then moves a point by at most a quarter of a cell.
GRID_CELL_SHARE = 0.5
# Fixed arrays of the level construction, computed once: the probe
# distances as shares of a side's length, and the near and far distances of
# _side_points in cells. The far ones are running sums of LEVEL_GROWTH^k;
# no side needs more of them than this, as its rest / cell is at most the
# largest double (the last sums overflow to inf, past every side's end).
PROBE_SHARES = 2.0 ** -np.arange(SCALE_PROBES)
SIDE_SIGNS = np.array([[-1.0], [1.0]])
NEAR_STEPS = np.arange(1, LEVEL_SPAN * LEVEL_CELLS + 1, dtype=float)
with np.errstate(over="ignore"):
    FAR_STEPS = np.cumsum(
        LEVEL_GROWTH ** np.arange(1, int(math.log(sys.float_info.max) / math.log(LEVEL_GROWTH)) + 2)
    )
# Near its mode log w can exceed log_c by its own rounding (7e-12 on the nu
# target at A = 101, whose terms are ~1e4); past this relative slack,
# x_mode is not where w peaks.
MODE_SLACK = 1e-9


def check_knot_rule(midpoint_kind: str, omega: float) -> None:
    """Reject a greedy splitting rule that select_knots cannot apply."""
    if midpoint_kind not in MIDPOINT_KINDS:
        raise DomainError(f"unknown midpoint kind {midpoint_kind!r}")
    if not 0.0 < omega < 1.0:
        raise DomainError("omega must lie in (0, 1)")


@dataclass(frozen=True)
class KnotTable:
    """Strictly ascending knots, each with a window and its log base mass.

    ``x1``/``x2`` are an open window that contains A_{u_j}, and
    ``log_probs`` its log base mass, the height of piece j. Heights
    are made nonincreasing: where a height exceeds an earlier one (solver
    noise), the piece takes the earlier knot's height and window, which
    contains A_u for every later u too. So each height stays the base mass
    of the window its piece uses. Heights that are already nonincreasing,
    as a level table's are by construction, are kept as given with no
    re-index: the check is on the data, so a table that does rise is still
    caught.

    ``log_lows[j]`` is a lower bound on log P(A_u) over piece j (the last
    entry, which has no piece, is -inf). Left out, it is the next knot's
    height, which is what solved knots give. Lows are capped at their
    piece's height.
    """

    knots: np.ndarray
    log_probs: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    log_lows: np.ndarray | None = None

    def __post_init__(self):
        u = np.asarray(self.knots, dtype=float)
        lp = np.asarray(self.log_probs, dtype=float)
        x1 = np.asarray(self.x1, dtype=float)
        x2 = np.asarray(self.x2, dtype=float)
        if u.ndim != 1 or not u.shape == lp.shape == x1.shape == x2.shape or u.size < 2:
            raise DomainError("knot table needs matching 1-d arrays with >= 2 knots")
        if not (u[1:] > u[:-1]).all():  # False against NaN as well
            raise DomainError("knots must be strictly ascending")
        if not (lp[1:] <= lp[:-1]).all():
            # A height rises (or is NaN): re-index each knot to the running
            # minimum's knot, which is the knot itself where its height is
            # the minimum so far.
            idx = np.arange(u.size)
            src = np.maximum.accumulate(np.where(lp <= np.minimum.accumulate(lp), idx, 0))
            lp, x1, x2 = lp[src], x1[src], x2[src]
        lows = np.empty_like(lp)
        if self.log_lows is None:
            lows[:-1] = lp[1:]
        else:
            given = np.asarray(self.log_lows, dtype=float)
            if given.shape != u.shape:
                raise DomainError("log_lows must match the knots")
            np.minimum(given[:-1], lp[:-1], out=lows[:-1])
        lows[-1] = -np.inf
        object.__setattr__(self, "knots", u)
        object.__setattr__(self, "log_probs", lp)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "log_lows", lows)

    @property
    def n_intervals(self) -> int:
        return self.knots.size - 1


@dataclass(frozen=True)
class StepApprox:
    """Built step density: knot table, log normalizer, and CDF at the knots.

    The first knot is u = 0 (build_step checks it), so ``grid_cdf[j]`` is
    H(u_j) at ``table.knots[j]``, from 0 at the head knot to 1 at u_N.
    Instances are immutable snapshots; knot insertion returns a fresh one.
    """

    table: KnotTable
    log_a: float
    grid_cdf: np.ndarray

    @property
    def u_lo(self) -> float:
        """Start of the descent grid: the first knot above the head knot at 0."""
        return float(self.table.knots[1])

    @property
    def u_hi(self) -> float:
        return float(self.table.knots[-1])


def _mid(kind: str, lo: float, hi: float) -> float:
    if kind == "geometric" and lo > 0.0:
        return math.exp(0.5 * (math.log(lo) + math.log(hi)))
    return 0.5 * (lo + hi)


def _u_top(target: WeightedTarget) -> float:
    """The smallest u with A_u empty: 1 on a continuous base, where w
    attains c at x_mode, and on integer support the largest w(k) / c, which
    for a unimodal w is at floor(x_mode) or ceil(x_mode). Capped at 1, since
    log w at a large integer mode can round above log_c."""
    if not target.discrete:
        return 1.0
    m = target.x_mode
    log_top = float(np.max(target.log_w(np.array([math.floor(m), math.ceil(m)])))) - target.log_c
    u_top = min(1.0, math.exp(log_top))
    if not u_top >= sys.float_info.min:
        raise DomainError(
            f"the top integer level w(k) / c = exp({log_top:.6g}) is below the smallest normal double"
        )
    return u_top


def find_u_lo(target: WeightedTarget) -> float:
    """Where P(A_u) first drops below P(A_0), floored at DESCENT_TOL.

    w is unimodal on the support, so A_u is the whole support until u
    passes the smaller of w at the two support ends over c: one log_w call
    at the two ends gives the drop in closed form. An infinite end counts
    as w = 0 there, without a log_w call, so on a geometric base the drop
    is at u = 0. A drop below the floor is returned as the floor; the
    envelope stays valid regardless because the built step carries P(A_0)
    on the leading piece. The floor is DESCENT_TOL, or half of find_u_hi's
    result where that is lower: on integer support A_u can empty below
    DESCENT_TOL (CMP(2, 200) has w(1) / c = 5.1e-11).
    """
    base = target.base
    ends = np.array([base.lo, base.hi])
    if np.all(np.isfinite(ends)):
        log_drop = float(np.min(target.log_w(ends))) - target.log_c
    else:
        log_drop = -math.inf
    if not log_drop < 0.0:
        raise DegenerateTargetError("w at both support ends reaches its maximum; w has no descent")
    return max(min(DESCENT_TOL, 0.5 * _u_top(target)), math.exp(log_drop))


def find_u_hi(target: WeightedTarget, u_lo: float) -> float:
    """Smallest u with A_u empty, in closed form (see _u_top): 1 on a
    continuous base, and on integer support one log_w call at the two
    integers next to x_mode. Raises BracketError where A_u is already empty
    at u_lo.
    """
    if not 0.0 < u_lo < 1.0:
        raise DomainError("u_lo must lie in (0, 1)")
    u_hi = _u_top(target)
    if not u_lo < u_hi:
        raise BracketError("P(A_u) is already zero at u_lo")
    return u_hi


def select_knots(
    target: WeightedTarget,
    u_lo: float,
    u_hi: float,
    n_intervals: int,
    midpoint_kind: str = "geometric",
    omega: float = 0.5,
) -> KnotTable:
    """Greedy rectangle splitting of [u_lo, u_hi] into n_intervals pieces.

    Each step splits the max-priority interval at its midpoint. Priorities
    are kept in log space: omega log(P_{j-1} - P_j) + (1 - omega)
    log(u_j - u_{j-1}), which with omega = 1/2 orders intervals by
    rectangle area. The "hybrid" kind tries both the arithmetic and
    geometric midpoints of the chosen interval at once, which recovers
    quickly when the descent sits many orders of magnitude below u_hi.
    Raises DomainError where a solved height rises with u, as P(A_u) cannot.
    """
    if not u_lo < u_hi:
        raise DomainError("select_knots requires u_lo < u_hi")
    if n_intervals < 1:
        raise DomainError("n_intervals must be >= 1")
    if u_lo <= 0.0:
        raise DomainError("u_lo must be positive")
    check_knot_rule(midpoint_kind, omega)
    u = np.array([u_lo, u_hi])
    x1, x2, lp = target.superlevel(u)
    n_knots_goal = n_intervals + 1
    while u.size < n_knots_goal:
        if np.any(lp[1:] > lp[:-1]):
            j = int(np.argmax(lp[1:] > lp[:-1]))
            raise DomainError(f"{target.name or 'target'}: the solved P(A_u) rises from u = {float(u[j])!r} to "
                              f"{float(u[j + 1])!r}: log w rounds by more than the gaps between knot heights")
        # Ties, and a row of all -inf keys, go to the smaller index.
        with np.errstate(invalid="ignore"):
            keys = omega * log_diff_exp(lp[:-1], lp[1:]) + (1.0 - omega) * np.log(np.diff(u))
        j = 0 if np.all(np.isneginf(keys)) else int(np.argmax(keys))
        lo, hi = float(u[j]), float(u[j + 1])
        if midpoint_kind == "hybrid":
            cands = sorted({_mid("geometric", lo, hi), _mid("arithmetic", lo, hi)})
            cands = [c for c in cands if lo < c < hi][: n_knots_goal - u.size]
        else:
            u_new = _mid(midpoint_kind, lo, hi)
            cands = [u_new] if lo < u_new < hi else []
        if not cands:
            break  # interval narrower than float resolution
        x1_new, x2_new, lp_new = target.superlevel(np.asarray(cands))
        u = np.insert(u, j + 1, cands)
        lp = np.insert(lp, j + 1, lp_new)
        x1 = np.insert(x1, j + 1, x1_new)
        x2 = np.insert(x2, j + 1, x2_new)
    return KnotTable(u, lp, x1, x2)


def equal_spaced_knots(
    target: WeightedTarget, u_lo: float, u_hi: float, n_intervals: int
) -> KnotTable:
    """Knots u_j = u_lo + (j/N)(u_hi - u_lo)."""
    if not u_lo < u_hi:
        raise DomainError("equal_spaced_knots requires u_lo < u_hi")
    if n_intervals < 1:
        raise DomainError("n_intervals must be >= 1")
    if u_lo <= 0.0:
        raise DomainError("u_lo must be positive")
    u = np.linspace(u_lo, u_hi, n_intervals + 1)
    x1, x2, lp = target.superlevel(u)
    return KnotTable(u, lp, x1, x2)


def _side_points(m: float, sign: float, end: float, scale: float, length: float) -> np.ndarray:
    """A side's tabulation points, outward from the mode m to its support end.

    Cells of scale / LEVEL_CELLS out to LEVEL_SPAN scale, then cells growing
    by LEVEL_GROWTH, then the end; a side of length 0 has none.
    """
    if not length > 0:
        return np.empty(0)
    cell = scale / LEVEL_CELLS
    rest = length - LEVEL_SPAN * scale
    n_far = 0
    if rest > 0:
        n_far = int(math.log1p(rest * (LEVEL_GROWTH - 1.0) / cell) / math.log(LEVEL_GROWTH)) + 1
    d = np.concatenate((cell * NEAR_STEPS, LEVEL_SPAN * scale + cell * FAR_STEPS[:n_far]))
    d = d[d < length]
    points = np.empty(d.size + 1)
    points[:-1] = m + sign * d
    points[-1] = end
    return points


def _level_points(target: WeightedTarget, x: np.ndarray, sign: np.ndarray):
    """(x, log w) at points x, each on the side of x_mode that sign gives (-1 left, +1 right).

    Without a grid, log w comes from one log_w call at x. On a target with
    a grid, each point snaps to its nearest grid point on its own side of
    x_mode, and log w is read at those grid points only (``log_w_at``): the
    snap keeps each side's points in order and may repeat one. Raises
    ModeError where log w exceeds log_c by more than rounding.
    """
    grid = target.grid
    if grid is None:
        log_w = np.asarray(target.log_w(x), dtype=float)
    else:
        grid_x = grid.x
        # The grid spans the support, so i is the first grid point at or
        # above x (at least 1), or the one before it where that is nearer.
        i = grid_x.searchsorted(x)
        np.maximum(i, 1, out=i)
        i -= x - grid_x[i - 1] < grid_x[i] - x
        m, last = target.x_mode, grid_x.size - 1
        right = int(grid_x.searchsorted(m, side="right"))  # first grid point past the mode
        left = right - 1 - (grid_x[right - 1] == m)  # last grid point before it
        # A side of length 0 (x_mode at a support end) snaps to the end.
        i = np.where(sign > 0, np.maximum(i, min(right, last)), np.minimum(i, max(left, 0)))
        x, log_w = grid_x[i], grid.log_w_at(i)
    limit = target.log_c + MODE_SLACK * (1.0 + abs(target.log_c))
    if (log_w > limit).any():
        worst = np.unravel_index(log_w.argmax(), log_w.shape)
        raise ModeError(
            f"log w({x[worst]!r}) = {log_w[worst]!r} exceeds log_c = {target.log_c!r}: "
            f"x_mode = {target.x_mode!r} is not the maximizer of w"
        )
    return x, log_w


def _grid_resolves(grid_x: np.ndarray, m: float, scales, lengths) -> bool:
    """Whether the grid spacing at the mode, and one scale out on each side
    of nonzero length, is at most GRID_CELL_SHARE of that side's cell."""
    scales, lengths = np.asarray(scales), np.asarray(lengths)
    k = grid_x.searchsorted(m + SIDE_SIGNS * np.array([[0.0, scales[0]], [0.0, scales[1]]]))
    np.minimum(np.maximum(k, 1, out=k), grid_x.size - 1, out=k)
    spacing = (grid_x[k] - grid_x[k - 1]).max(axis=1)
    return bool(((spacing <= GRID_CELL_SHARE * scales / LEVEL_CELLS) | (lengths == 0)).all())


def level_knots(target: WeightedTarget) -> KnotTable:
    """Knots at the levels of one tabulation of log w, with no endpoint solve.

    Two log_w calls. The first probes x_mode -/+ L 2^-k (k < SCALE_PROBES,
    L the side's length) and takes as the side's scale s the smallest
    probed distance at which log w has dropped by SCALE_DROP nats, or L.
    The second tabulates each side on cells of s / LEVEL_CELLS out to
    LEVEL_SPAN s, then cells growing by LEVEL_GROWTH, and the support end.
    On a target with a grid both steps read log w from it instead, at the
    grid point nearest each point on its side of the mode, and call no
    log_w; the construction below is the same. Where the grid is too coarse
    for the cells (see _grid_resolves), the target is built as if it had
    no grid.

    The knots are u = 0, whose window is the whole support, every distinct
    tabulated level w(x_i) / c below 1, and u = 1. Knot u_j's window ends,
    on each side, at the first grid point outward with log w at or below
    log u_j + log c, or at the support end. As w is unimodal, that window
    contains A_u for every u >= u_j. The lower bound of piece j is the base
    mass of the hull of the grid points with log w at or above
    log u_{j+1} + log c, which lies inside A_u for every u < u_{j+1}; the
    last piece, which ends at u = 1, gets none.

    No level is searched for. The thresholds log u_j + log c ascend, and on
    each side the running minimum of log w outward from the mode and the
    running maximum inward from the support end are monotone. One stable
    merge of the thresholds with each of these runs counts, for all levels
    at once, the points before the window end and before the hull end, with
    the ties a binary search would give.

    Raises DomainError on an integer base, and ModeError where a tabulated
    or grid log w exceeds log_c by more than MODE_SLACK (1 + |log_c|).
    """
    if target.discrete:
        raise DomainError(
            "level knots need a continuous base; on integer support use the "
            "greedy or equal knots"
        )
    base, m, log_c = target.base, target.x_mode, target.log_c
    lengths = np.array([m - base.lo, base.hi - m])
    probe = lengths[:, None] * PROBE_SHARES
    x, log_w = _level_points(target, m + SIDE_SIGNS * probe, SIDE_SIGNS)
    if target.grid is not None:
        probe = SIDE_SIGNS * (x - m)  # the distances of the grid points read
    dropped = log_w <= log_c - SCALE_DROP
    scales = np.where(dropped.any(axis=1), np.where(dropped, probe, np.inf).min(axis=1), lengths)
    if target.grid is not None and not _grid_resolves(target.grid.x, m, scales, lengths):
        return level_knots(replace(target, grid=None))
    left = _side_points(m, -1.0, base.lo, scales[0], lengths[0])
    right = _side_points(m, 1.0, base.hi, scales[1], lengths[1])
    n_left = left.size
    x, log_w = _level_points(target, np.concatenate((left, right)), SIDE_SIGNS.repeat((n_left, right.size)))

    below = log_w[log_w < log_c]
    u = np.empty(below.size + 2)
    u[0], u[-1] = 0.0, 1.0
    with np.errstate(under="ignore"):
        np.exp(below - log_c, out=u[1:-1])
    u[1:-1].sort()
    # 0, the distinct levels in (0, 1) and 1: each entry above the one before it.
    u = u[np.concatenate(([True], u[1:] > u[:-1]))]
    thr = np.log(u[1:]) + log_c
    k = np.arange(thr.size)
    n_u = u.size
    # Row 0 holds lower ends and row 1 upper ends: the knots' windows, then
    # the hulls of pieces 0 .. n_u - 3, then two empty windows at the mode,
    # as the last piece gets no lower bound (it ends at u = 1, where P(A_u)
    # falls to 0) and the last knot has no piece. One log_prob gives all.
    ends = np.empty((2, 2 * n_u))
    ends[:, 0] = base.lo, base.hi
    ends[:, -2:] = m
    # In a stable argsort of two ascending runs, an entry of the second run
    # lands after the entries of the first that are at or below it. So the
    # k-th threshold's place in the merge, less k, counts a run's entries at
    # or below thr_k where the run goes first, and below it where thr does.
    for row, side in enumerate((slice(0, n_left), slice(n_left, None))):
        # The side's points outward from the mode, where log w = log_c.
        xs = np.concatenate(([m], x[side]))
        lw = np.concatenate(([log_c], log_w[side]))
        n = xs.size
        # Window: the first point outward whose running minimum of log w is
        # at or below thr (the support end if none).
        merge = np.concatenate((np.minimum.accumulate(lw)[::-1], thr)).argsort(kind="stable")
        n_at_or_below = (merge >= n).nonzero()[0] - k
        ends[row, 1:n_u] = xs[np.minimum(n - n_at_or_below, n - 1)]
        # Hull: the last point outward with log w at or above thr (the mode
        # if none), where the running maximum from the support end inward
        # falls below thr.
        merge = np.concatenate((thr, np.maximum.accumulate(lw[::-1]))).argsort(kind="stable")
        n_below = (merge < thr.size).nonzero()[0] - k
        ends[row, n_u:-2] = xs[n - 1 - n_below[:-1]]
    log_p = base.log_prob(ends[0], ends[1])
    return KnotTable(u, log_p[:n_u], ends[0, :n_u], ends[1, :n_u], log_p[n_u:])


def build_step(kt: KnotTable, heights: np.ndarray | None = None) -> StepApprox:
    """Normalize the step function and precompute its CDF at the knots.

    ``heights``, where given, are the pieces' heights exp(log_probs) in
    linear space, known not to underflow: on a uniform base, window widths
    over the base's width. The CDF is then summed from them directly;
    otherwise it is summed in log space from log_probs.

    Raises DomainError unless the first knot is u = 0, so that the pieces
    cover every u in [0, u_N) and the CDF starts at H(0) = 0.
    """
    u = kt.knots
    if u[0] != 0.0:
        raise DomainError(f"a step envelope starts at a head knot at u = 0, not at u = {u[0]!r}")
    cdf = np.empty(u.size)
    cdf[0] = 0.0
    if heights is None:
        with np.errstate(divide="ignore"):
            terms = kt.log_probs[:-1] + np.log(u[1:] - u[:-1])
        log_a = log_sum_exp(terms)
        if math.isinf(log_a):
            raise DegenerateTargetError("step function has zero total mass")
        np.minimum(np.exp(terms - log_a).cumsum(), 1.0, out=cdf[1:])
        cdf[-1] = 1.0
    else:
        # Partial sums of the areas over their total: they ascend to 1.
        (heights[:-1] * (u[1:] - u[:-1])).cumsum(out=cdf[1:])
        total = float(cdf[-1])
        if not total > 0.0:
            raise DegenerateTargetError("step function has zero total mass")
        cdf[1:] /= total
        log_a = math.log(total)
    return StepApprox(table=kt, log_a=log_a, grid_cdf=cdf)


def step_cdf(s: StepApprox, u):
    """Piecewise-linear CDF H(u)."""
    return np.interp(u, s.table.knots, s.grid_cdf)


def step_quantile_many(s: StepApprox, phi) -> np.ndarray:
    """Vectorized quantile H^{-1}(phi): step_cdf's map, read backwards.
    Rejects NaN as well as phi outside [0, 1]."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if not np.all((phi >= 0) & (phi <= 1)):
        raise DomainError("phi must lie in [0, 1]")
    return np.interp(phi, s.grid_cdf, s.table.knots)


def step_quantile(s: StepApprox, phi: float) -> float:
    """Scalar quantile H^{-1}(phi): step_quantile_many's map on one float,
    with no array made around it. Rejects NaN as well as phi outside [0, 1]."""
    if not 0.0 <= phi <= 1.0:
        raise DomainError("phi must lie in [0, 1]")
    return float(np.interp(phi, s.grid_cdf, s.table.knots))


def step_logpdf_unnorm(s: StepApprox, u):
    """log h*(u): left-closed pieces from u_0 = 0, zero below 0 and from u_N on.
    NaN in gives NaN out, as in step_cdf."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    knots = s.table.knots
    lp = s.table.log_probs
    idx = np.minimum(np.searchsorted(knots, u_arr, side="right") - 1, lp.size - 2)
    out = np.where((u_arr < 0) | (u_arr >= knots[-1]), -np.inf, lp[idx])
    out[np.isnan(u_arr)] = np.nan
    return out if np.ndim(u) else float(out[0])


def _log_rect_areas(kt: KnotTable) -> np.ndarray:
    """log (h_j - low_j)(u_{j+1} - u_j) for each piece j."""
    with np.errstate(invalid="ignore"):
        return log_diff_exp(kt.log_probs[:-1], kt.log_lows[:-1]) + np.log(np.diff(kt.knots))


def log_total_rect_area(kt: KnotTable) -> float:
    """log sum_j (h_j - low_j)(u_{j+1} - u_j): the area between the step
    function and the lower bounds on P(A_u), which contains the area
    between the step function and P(A_u)."""
    return log_sum_exp(_log_rect_areas(kt))


def total_rect_area(kt: KnotTable) -> float:
    return float(math.exp(log_total_rect_area(kt)))


def insert_knot(s: StepApprox, u, log_p, x1, x2):
    """Insert knots with their windows and log masses; rebuild once.

    Vectorized over u, with log_p, x1, x2 from ``superlevel(u)``. Returns
    (step, n_inserted). Points outside (u_0, u_N), on an existing knot, or
    repeated in the batch are skipped; with nothing left the step is
    returned as it is. KnotTable keeps the heights nonincreasing. Both
    halves of a split piece keep the parent piece's lower bound on P(A_u).
    """
    t = s.table
    u = np.atleast_1d(np.asarray(u, dtype=float))
    parent = np.clip(np.searchsorted(t.knots, u, side="right") - 1, 0, t.knots.size - 1)
    u, log_p, x1, x2, lows = (
        np.concatenate((old, np.broadcast_to(np.asarray(new, dtype=float), u.shape)))
        for old, new in (
            (t.knots, u), (t.log_probs, log_p), (t.x1, x1), (t.x2, x2), (t.log_lows, t.log_lows[parent])
        )
    )
    # np.unique keeps the first occurrence, so an existing knot wins.
    knots, first = np.unique(u, return_index=True)
    inside = (knots >= t.knots[0]) & (knots <= t.knots[-1])
    n_inserted = int(np.count_nonzero(inside)) - t.knots.size
    if n_inserted == 0:
        return s, 0
    pick = first[inside]
    return build_step(KnotTable(knots[inside], log_p[pick], x1[pick], x2[pick], lows[pick])), n_inserted


def knot_table_rows(kt: KnotTable):
    """Diagnostic rows (j, u_j, log_p_j, rect_area_j) for CSV dumps."""
    areas = np.concatenate(([0.0], np.exp(_log_rect_areas(kt))))
    return [
        (j, float(kt.knots[j]), float(kt.log_probs[j]), float(areas[j]))
        for j in range(kt.knots.size)
    ]
