"""Step-function envelope for the descent of P(A_u).

Locates the descent window [u_lo, u_hi], selects knots by greedy rectangle
splitting or equal spacing, and builds the piecewise-constant unnormalized
density together with its piecewise-linear CDF and quantile function. All
knot probabilities are carried as log values. Each knot u_j also carries
the window (x1_j, x2_j) that its height is the base mass of; the window
contains A_u for every u on the piece [u_j, u_{j+1}), so the sampler can
draw x on it without solving for A_u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DegenerateTargetError, DomainError
from .logspace import log_diff_exp, log_sum_exp
from .search import BisectionSpec, bisect
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

# Tolerance of the descent-window searches (linear in u for find_u_lo,
# in log u for find_u_hi) and the points per round of the log-u search.
DESCENT_TOL = 1e-10
DESCENT_BATCH = 16


def check_knot_rule(midpoint_kind: str, omega: float) -> None:
    """Reject a greedy splitting rule that select_knots cannot apply."""
    if midpoint_kind not in MIDPOINT_KINDS:
        raise DomainError(f"unknown midpoint kind {midpoint_kind!r}")
    if not 0.0 < omega < 1.0:
        raise DomainError("omega must lie in (0, 1)")


@dataclass(frozen=True)
class KnotTable:
    """Strictly ascending knots, each with a window and its log base mass.

    ``x1``/``x2`` are the open window that ``superlevel(u_j)`` returned,
    and ``log_probs`` its log base mass, the height of piece j. Heights
    are made nonincreasing: where a height exceeds an earlier one (solver
    noise), the piece takes the earlier knot's height and window, which
    contains A_u for every later u too. So each height stays the base mass
    of the window its piece uses.
    """

    knots: np.ndarray
    log_probs: np.ndarray
    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.knots, dtype=float)
        lp = np.asarray(self.log_probs, dtype=float)
        x1 = np.asarray(self.x1, dtype=float)
        x2 = np.asarray(self.x2, dtype=float)
        if u.ndim != 1 or not u.shape == lp.shape == x1.shape == x2.shape or u.size < 2:
            raise DomainError("knot table needs matching 1-d arrays with >= 2 knots")
        if np.any(np.diff(u) <= 0):
            raise DomainError("knots must be strictly ascending")
        # Index of the running minimum's knot: a knot keeps its own window
        # where its height is the minimum so far.
        idx = np.arange(u.size)
        src = np.maximum.accumulate(np.where(lp <= np.minimum.accumulate(lp), idx, 0))
        object.__setattr__(self, "knots", u)
        object.__setattr__(self, "log_probs", lp[src])
        object.__setattr__(self, "x1", x1[src])
        object.__setattr__(self, "x2", x2[src])

    @property
    def n_intervals(self) -> int:
        return self.knots.size - 1


@dataclass(frozen=True)
class StepApprox:
    """Built step density: knot table, log normalizer, and CDF grid.

    ``grid_u``/``grid_cdf`` include the leading point (0, 0) so the
    [0, u_0) piece participates in CDF and quantile evaluation. Instances
    are immutable snapshots; knot insertion returns a fresh one.
    """

    table: KnotTable
    log_a: float
    grid_u: np.ndarray
    grid_cdf: np.ndarray

    @property
    def u_lo(self) -> float:
        """Start of the descent grid: the first knot above a head knot at 0."""
        knots = self.table.knots
        return float(knots[1] if knots[0] == 0.0 else knots[0])

    @property
    def u_hi(self) -> float:
        return float(self.table.knots[-1])


def _mid(kind: str, lo: float, hi: float) -> float:
    if kind == "geometric" and lo > 0.0:
        return math.exp(0.5 * (math.log(lo) + math.log(hi)))
    return 0.5 * (lo + hi)


def _geometric_descent(eval_log_p, log_u_lo, log_u_hi, is_one):
    """Monotone-predicate search in log-u space via batched multisection.

    ``is_one`` maps an array of log P(A_u) values to the 0/1 predicate;
    the predicate must be 0 at log_u_lo and 1 at log_u_hi. Each round
    evaluates DESCENT_BATCH interior points in one vectorized call, which
    is equivalent to repeated geometric-midpoint bisection but far cheaper
    when P(A_u) is expensive. Stops when the bracket is DESCENT_TOL wide
    in log u and returns the final (log_lo, log_hi) bracket.
    """
    batch = DESCENT_BATCH
    lo, hi = float(log_u_lo), float(log_u_hi)
    for _ in range(10_000):
        if hi - lo <= DESCENT_TOL:
            break
        grid = np.linspace(lo, hi, batch + 2)[1:-1]
        z = is_one(eval_log_p(np.exp(grid)))
        idx = int(np.argmax(z)) if np.any(z) else batch
        hi_new = grid[idx] if idx < batch else hi
        lo_new = grid[idx - 1] if idx > 0 else lo
        if (lo_new, hi_new) == (lo, hi):
            break
        lo, hi = lo_new, hi_new
    else:
        raise BracketError("descent search failed to contract")
    return lo, hi


def find_u_lo(target: WeightedTarget) -> float:
    """Locate where P(A_u) first drops below P(A_0), floored at DESCENT_TOL.

    On a continuous base w is unimodal on [lo, hi], so A_u is the whole
    support until u passes min(w(lo), w(hi)) / c: one log_w call at the
    two ends gives the drop in closed form. A drop below DESCENT_TOL is
    returned as DESCENT_TOL; the envelope stays valid regardless because
    the built step carries P(A_0) on the leading piece.

    On integer support the drop indicator 1{P(A_u) != P(A_0)} is bisected
    on [0, 1], where equality means the probabilities coincide as doubles.
    The returned point is the descent-side end of the final bracket, so
    P(A_u) there is already below P(A_0). If P(A_u) is already zero at that
    point (the whole descent is narrower than DESCENT_TOL), a geometric
    search pins down the last u with positive mass instead.
    """
    if not target.discrete:
        base = target.base
        log_ends = np.asarray(target.log_w(np.array([base.lo, base.hi])), dtype=float)
        log_drop = float(np.min(log_ends)) - target.log_c
        if not log_drop < 0.0:
            raise DegenerateTargetError("w at both support ends reaches its maximum; w has no descent")
        return max(DESCENT_TOL, math.exp(log_drop))

    log_p0 = float(target.log_prob_Au(0.0))
    if math.isinf(log_p0):
        raise DegenerateTargetError("base measure puts no mass on the support of w")
    p0 = math.exp(log_p0)

    def dropped(u: float) -> bool:
        return math.exp(float(target.log_prob_Au(u))) != p0

    if not dropped(1.0):
        raise DegenerateTargetError("P(A_u) equals P(A_0) at u = 1; w has no descent")
    # The bracket [0, 1] is known to hold: P(A_0) = p0 by construction and
    # the drop at u = 1 was just checked.
    spec = BisectionSpec(
        x_lo=0.0, x_hi=1.0, predicate=dropped, tolerance=DESCENT_TOL, check_bracket=False
    )
    hi = bisect(spec).x_hi
    if not math.isinf(float(target.log_prob_Au(hi))):
        return float(hi)

    # Descent narrower than DESCENT_TOL: find the last u with P(A_u) > 0.
    def is_zero(lp):
        return np.isneginf(np.asarray(lp))

    lo_log, _hi = _geometric_descent(
        target.log_prob_Au, math.log(hi) - 512.0, math.log(hi), is_zero
    )
    return float(math.exp(lo_log))


def find_u_hi(target: WeightedTarget, u_lo: float) -> float:
    """Smallest u (to tolerance) with P(A_u) = 0, searched on [u_lo, 1].

    Returns the upper end of the final bracket, so P(A_u) = 0 for every
    u at or beyond the result and the step function vanishes only where
    the target truly has no mass.
    """
    if not 0.0 < u_lo < 1.0:
        raise DomainError("u_lo must lie in (0, 1)")
    if math.isinf(float(target.log_prob_Au(u_lo))):
        raise BracketError("P(A_u) is already zero at u_lo")

    def is_one(lp):
        return np.isneginf(np.asarray(lp))

    _lo, hi_log = _geometric_descent(target.log_prob_Au, math.log(u_lo), 0.0, is_one)
    return float(min(math.exp(hi_log), 1.0))


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


def build_step(kt: KnotTable) -> StepApprox:
    """Normalize the step function and precompute its CDF at the knots."""
    u = kt.knots
    lp = kt.log_probs
    with np.errstate(divide="ignore"):
        head = lp[0] + (np.log(u[0]) if u[0] > 0 else -np.inf)
        body = lp[:-1] + np.log(np.diff(u))
    terms = np.concatenate(([head], body))
    log_a = log_sum_exp(terms)
    if math.isinf(log_a):
        raise DegenerateTargetError("step function has zero total mass")
    increments = np.exp(terms - log_a)
    cdf = np.concatenate(([0.0], np.cumsum(increments)))
    cdf = np.minimum.accumulate(np.minimum(cdf, 1.0)[::-1])[::-1]
    cdf[-1] = 1.0
    grid_u = np.concatenate(([0.0], u))
    return StepApprox(table=kt, log_a=log_a, grid_u=grid_u, grid_cdf=cdf)


def step_cdf(s: StepApprox, u):
    """Piecewise-linear CDF H(u)."""
    return np.interp(u, s.grid_u, s.grid_cdf, left=0.0, right=1.0)


def step_quantile_many(s: StepApprox, phi) -> np.ndarray:
    """Vectorized quantile H^{-1}(phi) by interval lookup + interpolation."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if np.any((phi < 0) | (phi > 1)):
        raise DomainError("phi must lie in [0, 1]")
    idx = np.searchsorted(s.grid_cdf, phi, side="right")
    idx = np.clip(idx, 1, s.grid_cdf.size - 1)
    h0 = s.grid_cdf[idx - 1]
    h1 = s.grid_cdf[idx]
    u0 = s.grid_u[idx - 1]
    u1 = s.grid_u[idx]
    gap = h1 - h0
    frac = np.where(gap > 0, (phi - h0) / np.where(gap > 0, gap, 1.0), 0.0)
    out = u0 + (u1 - u0) * np.clip(frac, 0.0, 1.0)
    return np.where(phi >= 1.0, s.grid_u[-1], np.where(phi <= 0.0, 0.0, out))


def step_quantile(s: StepApprox, phi: float) -> float:
    """Scalar quantile H^{-1}(phi); rejects NaN as well as phi outside [0, 1]."""
    phi = float(phi)
    if not 0.0 <= phi <= 1.0:
        raise DomainError("phi must lie in [0, 1]")
    return float(step_quantile_many(s, phi)[0])


def step_logpdf_unnorm(s: StepApprox, u):
    """log h*(u): left-closed pieces, P(A_{u_0}) below u_0, zero past u_N."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    knots = s.table.knots
    lp = s.table.log_probs
    idx = np.searchsorted(knots, u_arr, side="right") - 1
    below = idx < 0
    beyond = u_arr >= knots[-1]
    idx = np.clip(idx, 0, lp.size - 2)
    out = lp[idx]
    out = np.where(below, lp[0], out)
    out = np.where(beyond, -np.inf, out)
    out = np.where((u_arr < 0) | (u_arr > 1), -np.inf, out)
    return out if np.ndim(u) else float(out[0])


def log_total_rect_area(kt: KnotTable) -> float:
    """log of the total rectangle area between consecutive knots."""
    lp = kt.log_probs
    u = kt.knots
    with np.errstate(invalid="ignore"):
        terms = log_diff_exp(lp[:-1], lp[1:]) + np.log(np.diff(u))
    return log_sum_exp(terms)


def total_rect_area(kt: KnotTable) -> float:
    return float(math.exp(log_total_rect_area(kt)))


def insert_knot(s: StepApprox, u, log_p, x1, x2):
    """Insert knots with their windows and log masses; rebuild once.

    Vectorized over u, with log_p, x1, x2 from ``superlevel(u)``. Returns
    (step, n_inserted). Points outside (u_0, u_N), on an existing knot, or
    repeated in the batch are skipped; with nothing left the step is
    returned as it is. KnotTable keeps the heights nonincreasing.
    """
    t = s.table
    u, log_p, x1, x2 = (
        np.concatenate((old, np.atleast_1d(np.asarray(new, dtype=float))))
        for old, new in ((t.knots, u), (t.log_probs, log_p), (t.x1, x1), (t.x2, x2))
    )
    # np.unique keeps the first occurrence, so an existing knot wins.
    knots, first = np.unique(u, return_index=True)
    inside = (knots >= t.knots[0]) & (knots <= t.knots[-1])
    n_inserted = int(np.count_nonzero(inside)) - t.knots.size
    if n_inserted == 0:
        return s, 0
    pick = first[inside]
    return build_step(KnotTable(knots[inside], log_p[pick], x1[pick], x2[pick])), n_inserted


def knot_table_rows(kt: KnotTable):
    """Diagnostic rows (j, u_j, log_p_j, rect_area_j) for CSV dumps."""
    areas = np.concatenate(
        ([0.0], (np.exp(kt.log_probs[:-1]) - np.exp(kt.log_probs[1:])) * np.diff(kt.knots))
    )
    return [
        (j, float(kt.knots[j]), float(kt.log_probs[j]), float(areas[j]))
        for j in range(kt.knots.size)
    ]
