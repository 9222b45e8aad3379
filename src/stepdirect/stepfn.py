"""Step-function envelopes h(u) >= P(A_u) for the descent of P(A_u).

The region under an envelope, x in a window of u that contains A_u, is
what a sampler draws a candidate (u, x) from, with two uniforms. A knot
table (``StepApprox``) holds it in u: ascending knots from a head knot
u_0 = 0, each with the window (x1_j, x2_j) that its height is the log base
mass of, which contains A_u for every u on the piece [u_j, u_{j+1}). One
np.interp map, read either way, gives the piecewise-linear CDF of u and its
quantile. Each piece has mass (build_step cuts a tail of empty ones), so
one ``propose`` maps floats and arrays of uniforms to (u, x). Each piece
also carries a lower bound on P(A_u), from which the rejection bound is
computed. The paper's greedy rectangle splitting and equal spacing place
knots in u over a descent window [u_lo, u_hi], which find_u_lo and
find_u_hi give in closed form, and solve each knot for its window; the
sampler prepends the head knot.

A level envelope (``LevelEnvelope``, from ``level_envelope`` on a
continuous base) needs no solve: log w is tabulated once on points around
the mode, and the region is stored as cells in x, each as high as the
lowest w / c from the mode out to it (the table or ziggurat construction
for unimodal densities). A candidate takes x from the cells' masses, then
u uniformly under x's cell: the same region, so u has density h(u) / a and
x given u is uniform on u's window. Its knot table is built only when read.

Members of a tilted family, log w + shift x, draw from their tilt
bucket's cells (``TiltBucket``, from ``tilt_bucket``): one member's cells
with heights raised to dominate every member of the bucket, so that a
member's own height is read on its candidate's cell alone, and a
candidate above it is rejected with no read of log w (``TiltedCells``),
as in the ziggurat method (Marsaglia and Tsang 2000).
"""
from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTargetError, DomainError, ModeError
from .logspace import log_diff_exp, log_sum_exp
# bisect is not called here, but stays importable from this module:
# perfbench/spans.py wraps it by name.
from .search import bisect  # noqa: F401
from .target import UniformBase, WeightedTarget

__all__ = [
    "KnotTable",
    "StepApprox",
    "LevelEnvelope",
    "MIDPOINT_KINDS",
    "check_knot_rule",
    "find_u_lo",
    "find_u_hi",
    "select_knots",
    "equal_spaced_knots",
    "level_envelope",
    "TiltBucket",
    "TiltedCells",
    "tilt_bucket",
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

# Floor of find_u_lo: the greedy and equal knots start no lower than this.
# The head knot at u = 0 carries P(A_0), so the envelope dominates P(A_u)
# below the floor too.
DESCENT_TOL = 1e-10

# Level envelopes (see level_envelope). 64 cells per scale left the rho Gibbs
# step above its 1% rejection gate; 128 keeps it near 0.4%.
SCALE_PROBES = 60
SCALE_DROP = 0.5
LEVEL_CELLS = 128
LEVEL_SPAN = 7
LEVEL_GROWTH = 1.15
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
    entry, which has no piece, is -inf), from ``lows`` capped at the
    piece's height. Left out, it is the next knot's height, which is what
    solved knots give.
    """

    knots: np.ndarray
    log_probs: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    lows: InitVar[np.ndarray | None] = None

    def __post_init__(self, lows):
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
        log_lows = np.empty_like(lp)
        if lows is None:
            log_lows[:-1] = lp[1:]
        else:
            lows = np.asarray(lows, dtype=float)
            if lows.shape != u.shape:
                raise DomainError("log_lows must match the knots")
            np.minimum(lows[:-1], lp[:-1], out=log_lows[:-1])
        log_lows[-1] = -np.inf
        for name, value in (("knots", u), ("log_probs", lp), ("x1", x1), ("x2", x2), ("log_lows", log_lows)):
            object.__setattr__(self, name, value)


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

    def propose(self, base, v_u, v_x):
        """Candidates (u, x) from two uniforms, floats (``draw``) or arrays
        (``sample``): u = H^-1(v_u), unchecked as uniforms lie in [0, 1), then
        x from the base on u's piece's window, which holds support, by v_x."""
        table = self.table
        u = np.interp(v_u, self.grid_cdf, table.knots)
        # u's piece (u >= 0 = u_0); a u at u_N stays on the last piece.
        j = np.minimum(table.knots.searchsorted(u, side="right") - 1, table.knots.size - 2)
        return u, base.truncated_draw(table.x1[j], table.x2[j], v_x)


@dataclass(frozen=True)
class LevelEnvelope:
    """A level envelope as cells in x (see level_envelope).

    ``bounds`` ascend from base.lo through x_mode, at ``bounds[n_left]``,
    to base.hi, with a lower bound on log w at each in ``log_w`` (log w
    itself, except on a TiltedMember). Cell i, from bounds[i] to
    bounds[i + 1], has an upper bound ``levels[i]`` on log w and height
    ``heights[i]`` = exp(levels[i] - log_c), capped at 1; the heights rise
    to 1 next to the mode and fall after it, so the cells above a level u
    form one window, whose base mass is h(u). ``cdf`` is the share of the
    cells' mass, height times width, below each bound, and ``log_a`` the
    log of that mass over the base's width. ``table``, the same envelope in
    u, is built on first read, which only the rejection bound, the knot
    rows and adaptive insertion make: a Gibbs step that draws once never
    builds it.

    A tilt bucket's cells (``TiltBucket.cells``) are a LevelEnvelope with
    their heights raised above exp(levels - log_c), and a member's own
    cells (``TiltedCells.level``) one whose bounds do not hold its mode,
    with ``n_left`` at the largest lower bound; their heights need not rise
    and fall about n_left, and ``table`` takes for each u the hull of the
    cells above it.
    """

    base: UniformBase
    bounds: np.ndarray
    heights: np.ndarray
    cdf: np.ndarray
    log_a: float
    n_left: int
    log_w: np.ndarray
    log_c: float
    levels: np.ndarray

    def locate(self, v_x):
        """(i, x): x = np.interp(v_x, cdf, bounds) and its cell i."""
        # side="right" skips cells of zero mass, whose cdf entries repeat.
        return self.cdf.searchsorted(v_x, side="right") - 1, np.interp(v_x, self.cdf, self.bounds)

    def propose(self, base, v_u, v_x):
        """Candidates (u, x) from two uniforms, in StepApprox.propose's
        order: x from v_x (``locate``), then u = v_u times the height of x's
        cell. ``base`` is unused: the cells are its uniform density."""
        i, x = self.locate(v_x)
        return v_u * self.heights[i], x

    @cached_property
    def table(self) -> KnotTable:
        """The envelope as a KnotTable, comparing levels in u as the cells do.

        Knot u_j's window is the hull of the cells whose height is above
        u_j, widened to reach bounds[n_left]: on each side, the cells from
        the mode out to the first whose height is at or below u_j where the
        heights rise and fall about n_left. Piece j's lower bound is the base
        mass of the hull of the points whose lower bound on w / c is at or
        above u_{j+1}, which lies inside A_u for every u below u_{j+1}, or
        none where no point is; the last piece, which ends at u = 1 where
        P(A_u) falls to 0, gets none. The knots are the cells' levels in both
        bounds, so a point that sets a height counts for the pieces below
        its lower one.
        """
        b, h, n_left, base = self.bounds, self.heights, self.n_left, self.base
        levels = np.unique(np.concatenate((h, np.exp(_cell_levels(self.log_w, n_left) - self.log_c))))
        u = np.concatenate(([0.0], levels[(levels > 0.0) & (levels < 1.0)], [1.0]))
        # The largest height from each support end inward.
        x1 = b[np.minimum(np.maximum.accumulate(h).searchsorted(u, side="right"), n_left)]
        x2 = b[np.maximum(h.size - np.maximum.accumulate(h[::-1]).searchsorted(u, side="right"), n_left)]
        # The largest lower bound on w / c from each support end inward.
        q = np.exp(self.log_w - self.log_c)
        reach_left = np.maximum.accumulate(q)
        reach_right = np.maximum.accumulate(q[::-1])[::-1]
        top, lows = u[1:-1], np.full(u.size, -np.inf)
        hull_lo = b[np.minimum(reach_left.searchsorted(top), b.size - 1)]
        hull_hi = b[np.maximum((-reach_right).searchsorted(-top, side="right") - 1, 0)]
        lows[:-2] = base.log_prob(hull_lo, hull_hi)
        return KnotTable(u, base.log_prob(x1, x2), x1, x2, lows)


def _mid(kind: str, lo: float, hi: float) -> float:
    if kind == "geometric" and lo > 0.0:
        return math.exp(0.5 * (math.log(lo) + math.log(hi)))
    return 0.5 * (lo + hi)


def _knot_table(target: WeightedTarget, u, x1, x2, log_p) -> KnotTable:
    """The KnotTable of solved knots u ascending to u_hi, where a last knot
    at u = 1 on integer support gets the window of the integers that read
    at log c, ties kept, and their mass. A_1 is empty, but that knot has no
    piece: its height is the lower bound of P(A_u) on the piece below it,
    where A_u holds those integers. The greedy split keys read the solved
    height, so the knots are placed before it is replaced."""
    if target.discrete and u[-1] == 1.0:
        x1[-1], x2[-1] = target.interval_endpoints(np.nextafter(target.log_c, -np.inf))
        log_p[-1] = target.base.log_prob(x1[-1], x2[-1])
    return KnotTable(u, log_p, x1, x2)


def find_u_lo(target: WeightedTarget) -> float:
    """Where P(A_u) first drops below P(A_0), floored at DESCENT_TOL.

    w is unimodal on the support, so A_u is the whole support until u
    passes the smaller of w at the two support ends over c: one log_w call
    at the two ends gives the drop in closed form. An infinite end counts
    as w = 0 there, without a log_w call, so on a geometric base the drop
    is at u = 0 and no log_w is called. A drop below the floor is returned
    as the floor; the envelope stays valid regardless because the built
    step carries P(A_0) on the leading piece.
    """
    base = target.base
    ends = np.array([base.lo, base.hi])
    if np.all(np.isfinite(ends)):
        log_drop = float(np.min(target.log_w(ends))) - target.log_c
    else:
        log_drop = -math.inf
    if not log_drop < 0.0:
        raise DegenerateTargetError("w at both support ends reaches its maximum; w has no descent")
    return max(DESCENT_TOL, math.exp(log_drop))


def find_u_hi(target: WeightedTarget, u_lo: float) -> float:
    """Smallest u with A_u empty: 1 on every base, as c is the largest w on
    the support, attained at x_mode."""
    if not 0.0 < u_lo < 1.0:
        raise DomainError("u_lo must lie in (0, 1)")
    return 1.0


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
    return _knot_table(target, u, x1, x2, lp)


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
    return _knot_table(target, u, *target.superlevel(u))


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
    # Rounding can carry m + sign d past the end; the cell bounds must ascend.
    (np.minimum if sign > 0 else np.maximum)(points, end, out=points)
    return points


def _level_points(target: WeightedTarget, x: np.ndarray):
    """(lo, hi): bounds on log w at points x, from the target's
    ``log_w_bounds``. Raises ModeError where lo exceeds log_c by more than
    rounding, and DomainError where it is NaN."""
    lo, hi = target.log_w_bounds(x)
    limit = target.log_c + MODE_SLACK * (1.0 + abs(target.log_c))
    if not (lo <= limit).all():
        nan = np.isnan(lo)
        if nan.any():
            raise DomainError(f"{target.name or 'target'}: log w({x[nan][0]!r}) is NaN")
        worst = np.unravel_index(lo.argmax(), lo.shape)
        raise ModeError(
            f"log w({x[worst]!r}) = {lo[worst]!r} exceeds log_c = {target.log_c!r}: "
            f"x_mode = {target.x_mode!r} is not the maximizer of w"
        )
    return lo, hi


def _cell_levels(log_w: np.ndarray, n_left: int) -> np.ndarray:
    """Each cell's level: the running minimum of log_w, given at the cell
    bounds, from the mode at bounds[n_left] out to the cell's inner end."""
    inner = np.concatenate((log_w[1 : n_left + 1], log_w[n_left:-1]))
    left_inner, right_inner = inner[:n_left][::-1], inner[n_left:]
    np.minimum.accumulate(left_inner, out=left_inner)
    np.minimum.accumulate(right_inner, out=right_inner)
    return inner


def level_envelope(target: WeightedTarget) -> LevelEnvelope:
    """The envelope of one tabulation of log w, as cells in x, with no endpoint solve.

    Two reads of the target's ``log_w_bounds`` (see _level_points), each
    one log_w call, or none on a TiltedMember, which reads its family's
    table. The first probes x_mode -/+ L 2^-k (k < SCALE_PROBES, L the
    side's length) and takes as the side's scale s the smallest probed
    distance at which log w has dropped by SCALE_DROP nats, or L. The
    second tabulates each side on cells of s / LEVEL_CELLS out to
    LEVEL_SPAN s, then cells growing by LEVEL_GROWTH, and the support end.

    The cell bounds are the tabulated points of both sides, x_mode and the
    support ends, ascending. A cell's height is exp(m - log c), with m the
    running minimum of the upper bounds from the mode out to the cell's
    inner end. As w is unimodal, w / c is at most that height on the cell,
    so the cells above a level u form a window that contains A_u. No level
    is sorted or searched for: one running minimum per side, then one
    cumsum. The levels m and the lower bounds are kept for the knot table
    and for ``tilt_bucket``.

    Raises DomainError on an integer base, ModeError where a lower bound
    on log w exceeds log_c by more than MODE_SLACK (1 + |log_c|), and
    DegenerateTargetError where the cells have no mass.
    """
    if target.discrete:
        raise DomainError(
            "level knots need a continuous base; on integer support use the "
            "greedy or equal knots"
        )
    base, m, log_c = target.base, target.x_mode, target.log_c
    lengths = np.array([m - base.lo, base.hi - m])
    probe = lengths[:, None] * PROBE_SHARES
    dropped = _level_points(target, m + SIDE_SIGNS * probe)[0] <= log_c - SCALE_DROP
    scales = np.where(dropped.any(axis=1), np.where(dropped, probe, np.inf).min(axis=1), lengths)
    left = _side_points(m, -1.0, base.lo, scales[0], lengths[0])
    right = _side_points(m, 1.0, base.hi, scales[1], lengths[1])
    n_left = left.size
    lo, hi = _level_points(target, np.concatenate((left, right)))
    # The points ascending, with x_mode (log w = log_c) between the sides.
    bounds = np.concatenate((left[::-1], [m], right))
    lo = np.concatenate((lo[:n_left][::-1], [log_c], lo[n_left:]))
    hi = np.concatenate((hi[:n_left][::-1], [log_c], hi[n_left:]))
    return _level_cells(base, bounds, _cell_levels(hi, n_left), n_left, lo, log_c)


@dataclass(frozen=True)
class TiltBucket:
    """The cells that the members of one tilt bucket draw from.

    ``cells`` are the level envelope of the bucket's anchor, log w_a, with
    bounds b, levels a_i and lower bounds as level_envelope built them, and
    log c_a at the anchor's mode x*; but each height is raised to q_i, which
    dominates the member at every shift s = theta - theta_a in ``shifts``.
    On cell i the member log w = log w_a + s x is at most a_i + s x_far,
    x_far being the cell's end in the direction of s, and its log c is at
    least log c_a + s x*, as log c is convex in s with that tangent at 0.
    So, over s in [s_lo, s_hi], a_i + s x_far - log c is at most

        log q_i = min(max(a_i - log c_a, a_i - log c_a + s_hi (b_{i+1} - x*),
                          a_i - log c_a + s_lo (b_i - x*)) + slack, 0),

    slack being MODE_SLACK (1 + |log c_a|) for rounding. The cells whose
    log q_i before the cap and the slack is at least -slack lie within
    ``top``, a slice; no other cell's a_i + s x_far can reach log c_a + s
    x*, which the cells next to x* reach, so the largest of them over
    ``top`` is their largest over every cell (``log_c``).
    """

    cells: LevelEnvelope
    shifts: tuple[float, float]
    top: slice

    def log_c(self, shift: float) -> float:
        """log c' = max_i (a_i + shift x_far,i), read over ``top``: at least
        log w anywhere, so it may stand for log c, with no mode search."""
        b, top = self.cells.bounds, self.top
        far = b[top.start + 1 : top.stop + 1] if shift > 0.0 else b[top]
        return float((self.cells.levels[top] + shift * far).max())

    def member(self, shift: float, log_c: float | None = None) -> TiltedCells | None:
        """The cells of the member at ``shift`` from the anchor, whose u is
        relative to ``log_c``, its log c, or log c' where None; None where
        the shift lies outside ``shifts``, which rounding could bring about."""
        if not self.shifts[0] <= shift <= self.shifts[1]:
            return None
        return TiltedCells(self, shift, self.log_c(shift) if log_c is None else log_c)


def tilt_bucket(anchor: WeightedTarget, shifts: tuple[float, float]) -> TiltBucket:
    """The TiltBucket of the members log w_a + s x, s in ``shifts`` (which
    holds 0), of ``anchor``, log w_a: its level envelope, with no read of
    log w on a TiltedMember, and one cumsum of the raised heights."""
    cells, (s_lo, s_hi) = level_envelope(anchor), shifts
    b, x_star, log_c = cells.bounds, anchor.x_mode, cells.log_c
    slack = MODE_SLACK * (1.0 + abs(log_c))
    log_q = cells.levels - log_c + np.maximum(np.maximum(s_hi * (b[1:] - x_star), s_lo * (b[:-1] - x_star)), 0.0)
    near = np.flatnonzero(log_q >= -slack)
    q = np.exp(np.minimum(log_q + slack, 0.0))
    raised = _level_cells(cells.base, b, cells.levels, cells.n_left, cells.log_w, log_c, q)
    return TiltBucket(raised, shifts, slice(int(near[0]), int(near[-1]) + 1))


@dataclass(frozen=True)
class TiltedCells:
    """The envelope of a tilted family's member from its bucket's cells.

    A candidate (u, x) is proposed under the bucket's heights q by
    LevelEnvelope.propose's map. The member's own height on x's cell i is
    h_i = exp(a_i + shift x_far,i - log_c), which bounds w / c there and is
    at most q_i. A candidate with u >= h_i is returned at u = 1, where A_u
    is empty for every target, so the sampler rejects it with no read of
    log w (thinned); the rest are uniform under the member's own cells, so
    what the accept test keeps is exact. ``log_c`` is the member's log c,
    or log c' (TiltBucket.log_c), which is at least log w everywhere, and u
    is relative to it, as is the sampler's accept test.

    ``level``, the member's own cells as a LevelEnvelope, is built on first
    read, with its knot table, for the rejection bound of the candidates
    that reach the accept test, the knot rows and adaptive insertion.
    """

    bucket: TiltBucket
    shift: float
    log_c: float

    def propose(self, base, v_u, v_x):
        """Candidates (u, x), floats or arrays, with u = 1 where v_u q_i is at
        or above the member's height h_i. ``base`` is unused."""
        cells, shift = self.bucket.cells, self.shift
        i, x = cells.locate(v_x)
        u = v_u * cells.heights[i]
        h = np.exp(cells.levels[i] + shift * cells.bounds[i + (shift > 0.0)] - self.log_c)
        return np.where(u < h, u, 1.0)[()], x

    @cached_property
    def level(self) -> LevelEnvelope:
        """The member's cells: the bucket's bounds, levels a_i + shift
        x_far,i, lower bounds shifted by shift x, and n_left at the largest."""
        cells, shift = self.bucket.cells, self.shift
        tilt = shift * cells.bounds
        levels = cells.levels + (tilt[1:] if shift > 0.0 else tilt[:-1])
        lo = cells.log_w + tilt
        return _level_cells(cells.base, cells.bounds, levels, int(lo.argmax()), lo, self.log_c)

    @property
    def table(self) -> KnotTable:
        return self.level.table

    @property
    def log_a(self) -> float:
        return self.level.log_a


def _level_cells(base, bounds, levels, n_left, lo, log_c, heights=None) -> LevelEnvelope:
    """The LevelEnvelope of cells between ``bounds`` with upper bounds
    ``levels`` on log w, and ``heights`` exp(levels - log_c) capped at 1
    unless given; raises DegenerateTargetError where they have no mass."""
    if heights is None:
        heights = np.exp(np.minimum(levels - log_c, 0.0))
    cdf = np.empty(bounds.size)
    cdf[0] = 0.0
    (heights * (bounds[1:] - bounds[:-1])).cumsum(out=cdf[1:])
    total = float(cdf[-1])
    if not total > 0.0:
        raise DegenerateTargetError("step function has zero total mass")
    cdf /= total
    return LevelEnvelope(base, bounds, heights, cdf, math.log(total / (base.hi - base.lo)), n_left, lo, log_c, levels)


def build_step(kt: KnotTable) -> StepApprox:
    """Normalize the step function and precompute its CDF at the knots, in log space.

    Raises DomainError unless the first knot is u = 0, so that the pieces
    cover every u in [0, u_N) and the CDF starts at H(0) = 0. Heights do
    not rise, so pieces of zero mass form a tail: the table ends at the
    first one's knot, and every piece holds support to draw x from.
    """
    u = kt.knots
    if u[0] != 0.0:
        raise DomainError(f"a step envelope starts at a head knot at u = 0, not at u = {u[0]!r}")
    with np.errstate(divide="ignore"):
        terms = kt.log_probs[:-1] + np.log(u[1:] - u[:-1])
    log_a = log_sum_exp(terms)
    if math.isinf(log_a):
        raise DegenerateTargetError("step function has zero total mass")
    if kt.log_probs[-2] == -np.inf:
        n = int(np.argmax(kt.log_probs == -np.inf)) + 1
        kt = KnotTable(u[:n], kt.log_probs[:n], kt.x1[:n], kt.x2[:n], kt.log_lows[:n])
        terms = terms[: n - 1]
    cdf = np.empty(terms.size + 1)
    cdf[0] = 0.0
    np.minimum(np.exp(terms - log_a).cumsum(), 1.0, out=cdf[1:])
    cdf[-1] = 1.0
    return StepApprox(table=kt, log_a=log_a, grid_cdf=cdf)


def step_cdf(s: StepApprox, u):
    """Piecewise-linear CDF H(u)."""
    return np.interp(u, s.table.knots, s.grid_cdf)


def step_quantile(s: StepApprox, phi):
    """Quantile H^{-1}(phi): step_cdf's map, read backwards, on a float or
    an array. Rejects NaN as well as phi outside [0, 1]."""
    phi = np.asarray(phi, dtype=float)
    if not ((phi >= 0) & (phi <= 1)).all():
        raise DomainError("phi must lie in [0, 1]")
    u = np.interp(phi, s.grid_cdf, s.table.knots)
    return u if phi.ndim else float(u)


def step_quantile_many(s: StepApprox, phi) -> np.ndarray:
    """step_quantile on phi as a 1-d array."""
    return step_quantile(s, np.atleast_1d(phi))


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
        np.concatenate((old, np.atleast_1d(new)))
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
