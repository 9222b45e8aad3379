"""Rejection sampler driven by the step-function envelope.

Candidates u come from the normalized step density via its quantile
function. Each knot of the envelope stores a window that contains A_u for
every u on its piece, with the piece's height equal to the window's base
mass. A candidate u on piece j draws x from the base truncated to window
j and is accepted iff log w(x) > log u + log c: with probability
P(A_u) / h(u), and then x follows the base truncated to A_u, so accepted
x are exact variates from the weighted target. No candidate solves for
A_u. Optionally the rejected u of a block become new knots, solved in one
call and inserted with one rebuild, tightening the envelope as sampling
runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SamplerStallError
from .rngstats import Rng
# step_logpdf_unnorm and step_quantile are not called here, but stay
# importable from this module: perfbench/spans.py wraps them by name.
from .stepfn import (
    KnotTable,
    StepApprox,
    build_step,
    check_knot_rule,
    equal_spaced_knots,
    find_u_hi,
    find_u_lo,
    insert_knot,
    log_total_rect_area,
    select_knots,
    step_logpdf_unnorm,
    step_quantile,
    step_quantile_many,
)
from .target import WeightedTarget

__all__ = [
    "SamplerConfig",
    "DirectDrawReport",
    "BuildDiagnostics",
    "DirectSampler",
    "build_sampler",
    "rejection_bound",
]

MAX_KNOTS = 4096
MAX_REJECTS = 10**6


@dataclass(frozen=True)
class SamplerConfig:
    """How build_sampler places the initial knots, and whether draws adapt.

    The descent window is not configurable: find_u_lo and find_u_hi derive
    it from the target (see build_sampler).
    """

    n_init_knots: int = 10
    midpoint_kind: str = "hybrid"
    omega: float = 0.5
    adapt: bool = True
    knot_method: str = "greedy"  # or "equal"

    def __post_init__(self):
        if self.n_init_knots < 1:
            raise DomainError("n_init_knots must be >= 1")
        if self.knot_method not in ("greedy", "equal"):
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
    """Computable upper bound on the rejection probability: sum|R_j| / a."""
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


def build_sampler(target: WeightedTarget, config: SamplerConfig = SamplerConfig()):
    """Locate the descent window, select knots, and build the envelope.

    The window starts at find_u_lo's u_lo: in closed form from w at the
    two support ends on a continuous base, by bisection on integers. On a
    continuous base the window ends at u_hi = 1: w attains c at x_mode, so
    A_u keeps positive base mass for every u < 1. On integer support A_u
    empties at the largest w(k)/c, which is searched for.

    The built table gains a leading knot at u = 0 carrying the full
    support as its window and log P(A_0) as its height, so
    the envelope piece on [0, u_lo) dominates P(A_u) even where the
    DESCENT_TOL floor puts u_lo past the drop. The extra rectangle is
    counted in the rejection bound, and adaptive insertion can split it
    like any other.
    """
    u_lo = find_u_lo(target)
    u_hi = find_u_hi(target, u_lo) if target.discrete else 1.0
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
    step = build_step(table)
    return step, _diagnostics(step)


class DirectSampler:
    """Stateful sampler; owns its envelope so adaptation can update it.

    Not thread-safe in adaptive mode; share only frozen (non-adaptive)
    samplers across threads, each with its own Rng.
    """

    def __init__(self, target: WeightedTarget, config: SamplerConfig = SamplerConfig(), step: StepApprox | None = None):
        self.target = target
        self.config = config
        if step is None:
            self.step, self.diagnostics = build_sampler(target, config)
        else:
            self.step = step
            self.diagnostics = _diagnostics(step)

    def rejection_bound(self) -> float:
        return rejection_bound(self.step)

    def _propose(self, m: int, rng: Rng, report: AggregateReport):
        """Propose m candidates; return the accepted (u, x) in order.

        Takes two uniforms per candidate, all m for u and then all m for x,
        and evaluates log w once per candidate. A candidate on a piece whose
        window holds no support point (quantile round-off onto a zero-mass
        piece) is rejected without a draw. Rejections are counted on
        ``report``, and more than MAX_REJECTS in total raise
        SamplerStallError. In adaptive mode the rejected u become knots.
        """
        v_u = rng.generator.uniform(size=m)
        v_x = rng.generator.uniform(size=m)
        table = self.step.table
        u = step_quantile_many(self.step, v_u)
        # u's piece; quantile round-off at either end stays on an end piece.
        j = np.clip(np.searchsorted(table.knots, u, side="right") - 1, 0, table.knots.size - 2)
        live = ~np.isneginf(table.log_probs[j])
        x = np.zeros(m)
        accept = np.zeros(m, dtype=bool)
        if np.any(live):
            j = j[live]
            x[live] = self.target.base.truncated_draw(table.x1[j], table.x2[j], v_x[live])
            with np.errstate(divide="ignore"):
                accept[live] = self.target.log_w(x[live]) > np.log(u[live]) + self.target.log_c
        rejected = u[~accept]
        report.n_rejected += rejected.size
        if report.n_rejected > MAX_REJECTS:
            raise SamplerStallError(
                f"exceeded {MAX_REJECTS} rejections after {report.n_draws} draws; "
                f"bound={self.rejection_bound():.3g}, knots={table.knots.size}"
            )
        room = MAX_KNOTS - table.knots.size
        if self.config.adapt and rejected.size and room > 0:
            u_new = rejected[:room]
            x1, x2, log_p = self.target.superlevel(u_new)
            self.step, inserted = insert_knot(self.step, u_new, log_p, x1, x2)
            report.knots_inserted += inserted
        return u[accept], x[accept]

    def draw(self, rng: Rng) -> DirectDrawReport:
        """One exact draw from the weighted target: blocks of one candidate
        until one is accepted, two uniforms (u, then x) per candidate."""
        report = AggregateReport()
        while True:
            u, x = self._propose(1, rng, report)
            if x.size:
                return DirectDrawReport(
                    x=float(x[0]),
                    u_accepted=float(u[0]),
                    n_rejected=report.n_rejected,
                    knots_inserted=report.knots_inserted,
                )

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
