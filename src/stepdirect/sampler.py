"""Rejection sampler driven by the step-function envelope.

Candidates u come from the normalized step density via its quantile
function. Each knot of the envelope stores a window that contains A_u for
every u on its piece, with the piece's height equal to the window's base
mass. A candidate u on piece j draws x from the base truncated to window
j and is accepted iff log w(x) > log u + log c: with probability
P(A_u) / h(u), and then x follows the base truncated to A_u, so accepted
x are exact variates from the weighted target. No candidate solves for
A_u. ``draw`` runs candidates one at a time on Python floats and
``sample`` runs them in vectorized blocks, with the same uniforms and the
same accept rule. Optionally the rejected u become new knots through one
helper, tightening the envelope as sampling runs: ``draw`` inserts each
before its next candidate, ``sample`` a block's in one solve and one
rebuild.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SamplerStallError
from .rngstats import Rng
# step_logpdf_unnorm is not called here, but stays importable from this
# module: perfbench/spans.py wraps it by name.
from .stepfn import (
    KnotTable,
    StepApprox,
    build_step,
    check_knot_rule,
    equal_spaced_knots,
    find_u_hi,
    find_u_lo,
    insert_knot,
    level_knots,
    log_total_rect_area,
    select_knots,
    step_logpdf_unnorm,
    step_quantile,
    step_quantile_many,
)
from .target import UniformBase, WeightedTarget

__all__ = [
    "SamplerConfig",
    "DirectDrawReport",
    "BuildDiagnostics",
    "DirectSampler",
    "build_envelope",
    "build_sampler",
    "rejection_bound",
]

MAX_KNOTS = 4096
MAX_REJECTS = 10**6


@dataclass(frozen=True)
class SamplerConfig:
    """How build_envelope places the initial knots, and whether draws adapt.

    The descent window is not configurable: find_u_lo and find_u_hi derive
    it from the target (see build_envelope). ``n_init_knots``,
    ``midpoint_kind`` and ``omega`` apply to the greedy and equal knots;
    level knots (continuous bases only) take theirs from the target.
    """

    n_init_knots: int = 10
    midpoint_kind: str = "hybrid"
    omega: float = 0.5
    adapt: bool = True
    knot_method: str = "greedy"  # or "equal", "level"

    def __post_init__(self):
        if self.n_init_knots < 1:
            raise DomainError("n_init_knots must be >= 1")
        if self.knot_method not in ("greedy", "equal", "level"):
            raise DomainError(f"unknown knot method {self.knot_method!r}")
        check_knot_rule(self.midpoint_kind, self.omega)


@dataclass(frozen=True)
class DirectDrawReport:
    x: float
    u_accepted: float
    n_rejected: int
    knots_inserted: int


@dataclass(frozen=True)
class BuildDiagnostics:
    u_lo: float
    u_hi: float
    log_rect_area: float
    rejection_bound: float
    n_knots: int

    @property
    def rect_area(self) -> float:
        return math.exp(self.log_rect_area)


@dataclass
class AggregateReport:
    n_draws: int = 0
    n_rejected: int = 0
    knots_inserted: int = 0


def rejection_bound(step: StepApprox) -> float:
    """Computable upper bound on the rejection probability:
    sum_j (h_j - low_j)(u_{j+1} - u_j) / a, with low_j the table's lower
    bound on P(A_u) over piece j."""
    return _diagnostics(step).rejection_bound


def _diagnostics(step: StepApprox) -> BuildDiagnostics:
    """Window, rectangle area, bound and knot count of a built envelope."""
    log_area = log_total_rect_area(step.table)
    return BuildDiagnostics(
        u_lo=step.u_lo,
        u_hi=step.u_hi,
        log_rect_area=log_area,
        rejection_bound=float(min(1.0, math.exp(log_area - step.log_a))),
        n_knots=step.table.knots.size,
    )


def build_envelope(target: WeightedTarget, config: SamplerConfig = SamplerConfig()) -> StepApprox:
    """Select knots and build the envelope.

    Level knots (``knot_method="level"``) come from ``level_knots``: two
    log_w calls and no endpoint solve, with the head knot at u = 0 and
    u_hi = 1 in the table. On a uniform base the CDF is summed from the
    window widths, in linear space.

    The greedy and equal knots cover a descent window [u_lo, u_hi], both in
    closed form with no search. u_lo is find_u_lo's: the smaller of w at
    the two support ends over c (w = 0 at an infinite end), floored at
    DESCENT_TOL, or at u_hi / 2 where that is lower. u_hi is find_u_hi's:
    1 on a continuous base, where w attains c at x_mode, and the largest
    w(k) / c on integer support, past which A_u is empty. The built table gains a leading knot at u = 0
    carrying the full support as its window and log P(A_0) as its height,
    so the envelope piece on [0, u_lo) dominates P(A_u) whatever u_lo is.
    The extra rectangle is counted in the rejection bound, and adaptive
    insertion can split it like any other.
    """
    if config.knot_method == "level":
        table = level_knots(target)
        base = target.base
        # On a uniform base each height is a window width over the base's.
        heights = (table.x2 - table.x1) / (base.hi - base.lo) if isinstance(base, UniformBase) else None
        return build_step(table, heights)
    u_lo = find_u_lo(target)
    u_hi = find_u_hi(target, u_lo)
    if config.knot_method == "equal":
        table = equal_spaced_knots(target, u_lo, u_hi, config.n_init_knots)
    else:
        table = select_knots(
            target, u_lo, u_hi, config.n_init_knots, config.midpoint_kind, config.omega
        )
    x1_0, x2_0, log_p0 = target.superlevel(0.0)
    table = KnotTable(
        np.concatenate(([0.0], table.knots)),
        np.concatenate(([log_p0], table.log_probs)),
        np.concatenate(([x1_0], table.x1)),
        np.concatenate(([x2_0], table.x2)),
    )
    return build_step(table)


def build_sampler(target: WeightedTarget, config: SamplerConfig = SamplerConfig()):
    """(step, diagnostics): ``build_envelope`` and the diagnostics of what it built."""
    step = build_envelope(target, config)
    return step, _diagnostics(step)


class DirectSampler:
    """Stateful sampler; owns its envelope so adaptation can update it.

    Not thread-safe in adaptive mode; share only frozen (non-adaptive)
    samplers across threads, each with its own Rng.
    """

    def __init__(self, target: WeightedTarget, config: SamplerConfig = SamplerConfig(), step: StepApprox | None = None):
        self.target = target
        self.config = config
        self.step = build_envelope(target, config) if step is None else step
        self._built = self.step

    @cached_property
    def diagnostics(self) -> BuildDiagnostics:
        """Diagnostics of the envelope as built or given, before any adaptation.

        Computed on first read: a Gibbs step draws once from each sampler
        and reads none of it.
        """
        return _diagnostics(self._built)

    def rejection_bound(self) -> float:
        return rejection_bound(self.step)

    def _propose(self, m: int, rng: Rng, report: AggregateReport):
        """Propose m candidates; return the accepted (u, x) in order.

        Takes two uniforms per candidate, all m for u and then all m for x,
        and evaluates log w once per candidate. A candidate on a piece whose
        window holds no support point (quantile round-off onto a zero-mass
        piece) is rejected without a draw. Rejections are counted on
        ``report``, and more than MAX_REJECTS in total raise
        SamplerStallError. In adaptive mode the rejected u become knots
        (``_insert``).
        """
        v_u = rng.generator.uniform(size=m)
        v_x = rng.generator.uniform(size=m)
        table = self.step.table
        u = step_quantile_many(self.step, v_u)
        # u's piece (u >= 0 = u_0); a u at u_N stays on the last piece.
        j = np.minimum(np.searchsorted(table.knots, u, side="right") - 1, table.knots.size - 2)
        live = ~np.isneginf(table.log_probs[j])
        x = np.zeros(m)
        accept = np.zeros(m, dtype=bool)
        if np.any(live):
            jl = j[live]
            x[live] = self.target.base.truncated_draw(table.x1[jl], table.x2[jl], v_x[live])
            with np.errstate(divide="ignore"):
                accept[live] = self.target.log_w(x[live]) > np.log(u[live]) + self.target.log_c
        rejected = u[~accept]
        report.n_rejected += rejected.size
        self._check_stall(report.n_rejected, report.n_draws)
        if self.config.adapt and rejected.size:
            report.knots_inserted += self._insert(rejected, j[~accept])
        return u[accept], x[accept]

    def _insert(self, u, j) -> int:
        """Insert rejected candidates u, on pieces j, as knots while the
        table has fewer than MAX_KNOTS; return how many went in. Each A_u is
        solved from its piece's window, which already brackets it."""
        table = self.step.table
        room = MAX_KNOTS - table.knots.size
        if room <= 0:
            return 0
        u, j = np.atleast_1d(u)[:room], np.atleast_1d(j)[:room]
        x1, x2, log_p = self.target.superlevel(u, (table.x1[j], table.x2[j]))
        self.step, inserted = insert_knot(self.step, u, log_p, x1, x2)
        return inserted

    def _check_stall(self, n_rejected: int, n_draws: int) -> None:
        """Raise SamplerStallError past MAX_REJECTS rejections in one call."""
        if n_rejected > MAX_REJECTS:
            raise SamplerStallError(
                f"exceeded {MAX_REJECTS} rejections after {n_draws} draws; "
                f"bound={self.rejection_bound():.3g}, knots={self.step.table.knots.size}"
            )

    def draw(self, rng: Rng) -> DirectDrawReport:
        """One exact draw from the weighted target.

        Runs candidates one at a time on Python floats until one is
        accepted. Each takes two uniforms, u then x, and the quantile map
        and accept rule of ``sample``: log w(x) > log u + log c. In adaptive
        mode each rejected u becomes a knot before the next candidate, so on
        the same stream a draw equals ``sample(1)``.
        """
        uniform, target, adapt = rng.generator.uniform, self.target, self.config.adapt
        log_c, truncated_draw = target.log_c, target.base.truncated_draw
        n_rejected = knots_inserted = 0
        while True:
            step = self.step
            table = step.table
            u = step_quantile(step, uniform())
            v = uniform()
            # u's piece (u >= 0 = u_0); a u at u_N stays on the last piece.
            j = min(int(table.knots.searchsorted(u, side="right")) - 1, table.knots.size - 2)
            # A piece whose window holds no support point rejects without a draw.
            if table.log_probs[j] > -math.inf:
                x = float(truncated_draw(float(table.x1[j]), float(table.x2[j]), v))
                log_u = np.log(u) if u > 0.0 else -math.inf
                if target.log_w(x) > log_u + log_c:
                    return DirectDrawReport(x=x, u_accepted=u, n_rejected=n_rejected, knots_inserted=knots_inserted)
            n_rejected += 1
            self._check_stall(n_rejected, 0)
            if adapt:
                knots_inserted += self._insert(u, j)

    def sample(self, n: int, rng: Rng):
        """n exact draws, proposed in vectorized blocks.

        Rejected candidates in a block are inserted as knots (adaptive
        mode) before the next block is proposed. Adaptive blocks start
        small and double, so early rejections tighten the envelope before
        the bulk of the candidates is committed.
        """
        if n < 0:
            raise DomainError("n must be nonnegative")
        report = AggregateReport()
        out = np.empty(n, dtype=float)
        block = 64 if self.config.adapt else n
        while report.n_draws < n:
            m = min(n - report.n_draws, max(block, 1))
            block *= 2
            _u, x = self._propose(m, rng, report)
            out[report.n_draws : report.n_draws + x.size] = x
            report.n_draws += x.size
        return out, report
