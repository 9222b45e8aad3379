"""Rejection sampler driven by the step-function envelope.

Candidates u come from the normalized step density via its quantile
function; acceptance compares log v against log P(A_u) - log h*(u) so tiny
masses never leave log space. Accepted u values feed the truncated base
draw, giving exact variates from the weighted target. Optionally each
rejected u becomes a new knot, tightening the envelope as sampling runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SamplerStallError
from .rngstats import Rng
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

    The built table gains a leading knot at u = 0 carrying log P(A_0), so
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
    log_p0 = float(target.log_prob_Au(0.0))
    table = KnotTable(
        np.concatenate(([0.0], table.knots)),
        np.concatenate(([log_p0], table.log_probs)),
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

    def _maybe_insert(self, u: float, log_p: float) -> int:
        if not self.config.adapt or self.step.table.knots.size >= MAX_KNOTS:
            return 0
        self.step, inserted = insert_knot(self.step, u, log_p)
        return int(inserted)

    def _accept(self, u: np.ndarray, v: np.ndarray, report: AggregateReport) -> np.ndarray:
        """The accept rule shared by draw and sample; returns the accept mask.

        Candidate u is accepted when P(A_u) > 0 and log v <= log P(A_u) -
        log h*(u). Rejected candidates become knots (adaptive mode) and
        are counted on ``report``; more than MAX_REJECTS rejections in
        total raise SamplerStallError.
        """
        log_p = np.asarray(self.target.log_prob_Au(u))
        log_h = np.asarray(step_logpdf_unnorm(self.step, u))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = log_p - log_h
            accept = ~np.isneginf(log_p) & ((ratio >= 0.0) | (np.log(v) <= ratio))
        for u_rej, lp_rej in zip(u[~accept], log_p[~accept]):
            report.knots_inserted += self._maybe_insert(float(u_rej), float(lp_rej))
        report.n_rejected += int(np.count_nonzero(~accept))
        if report.n_rejected > MAX_REJECTS:
            raise SamplerStallError(
                f"exceeded {MAX_REJECTS} rejections after {report.n_draws} draws; "
                f"bound={self.rejection_bound():.3g}, knots={self.step.table.knots.size}"
            )
        return accept

    def draw(self, rng: Rng) -> DirectDrawReport:
        """One exact draw from the weighted target.

        Uses two uniforms per candidate (u, then v) and one more for x
        once a candidate is accepted.
        """
        report = AggregateReport()
        while True:
            u = step_quantile(self.step, rng.generator.uniform())
            v = rng.generator.uniform()
            if self._accept(np.array([u]), np.array([v]), report)[0]:
                x = self.target.truncated_draw(u, rng)
                return DirectDrawReport(
                    x=x,
                    u_accepted=u,
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
            v_u = rng.generator.uniform(size=m)
            v_acc = rng.generator.uniform(size=m)
            v_x = rng.generator.uniform(size=m)
            u = step_quantile_many(self.step, v_u)
            accept = self._accept(u, v_acc, report)
            n_acc = int(np.count_nonzero(accept))
            if n_acc:
                xs = self.target.truncated_draw_many(u[accept], v_x[accept])
                out[report.n_draws : report.n_draws + n_acc] = xs
                report.n_draws += n_acc
        return out, report
