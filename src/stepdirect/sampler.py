"""Rejection sampler driven by the step-function envelope.

A candidate is a pair (u, x) uniform on the region under the envelope: u
with the step density h(u) / a, and x from the base on a window of u's
piece that contains A_u, with base mass h(u). The envelope makes it from
two uniforms: a knot table (``StepApprox``) draws u by its quantile
function and then x, and a level envelope (``LevelEnvelope``) draws x
from its cells and then u under x's cell. The candidate is accepted iff
log w(x) > log u + log c: with probability P(A_u) / h(u), and then x
follows the base truncated to A_u, so accepted x are exact variates from
the weighted target. No candidate solves for A_u. ``draw`` runs
candidates one at a time on Python floats and ``sample`` runs them in
vectorized blocks, with the same uniforms, the same accept rule and the
envelope's one ``propose`` for both.
Optionally the rejected u become new knots through one helper, tightening
the envelope as sampling runs: ``draw`` inserts each before its next
candidate, ``sample`` a block's in one solve and one rebuild.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SamplerStallError
from .rngstats import Rng
# step_logpdf_unnorm, step_quantile and step_quantile_many are not called
# here, nor by the envelopes' propose, but stay importable from this
# module: perfbench/spans.py wraps them by name.
from .stepfn import (
    KnotTable,
    LevelEnvelope,
    StepApprox,
    build_step,
    check_knot_rule,
    equal_spaced_knots,
    find_u_hi,
    find_u_lo,
    insert_knot,
    level_envelope,
    log_total_rect_area,
    select_knots,
    step_logpdf_unnorm,
    step_quantile,
    step_quantile_many,
)
from .target import WeightedTarget

Envelope = StepApprox | LevelEnvelope

__all__ = [
    "SamplerConfig",
    "GIBBS_STEP_CONFIG",
    "DirectDrawReport",
    "BuildDiagnostics",
    "DirectSampler",
    "build_envelope",
    "build_sampler",
    "rejection_bound",
]

MAX_KNOTS = 4096
MAX_REJECTS = 10**6
# Most candidates a block of ``sample`` proposes, which bounds its memory;
# the stream does not depend on it.
MAX_BLOCK = 2**16


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


# A Gibbs step (rho in car, nu in treg) builds a fresh envelope for each
# draw and drops it after one accepted value. Level knots build it from
# the target's grid or two log_w calls, with no endpoint solve, and it does
# not adapt, since a knot inserted into it would never be used.
GIBBS_STEP_CONFIG = SamplerConfig(knot_method="level", adapt=False)


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


def rejection_bound(step: Envelope) -> float:
    """Computable upper bound on the rejection probability:
    sum_j (h_j - low_j)(u_{j+1} - u_j) / a, with low_j the table's lower
    bound on P(A_u) over piece j."""
    return _diagnostics(step).rejection_bound


def _diagnostics(step: Envelope) -> BuildDiagnostics:
    """Window, rectangle area, bound and knot count of a built envelope."""
    knots = step.table.knots
    log_area = log_total_rect_area(step.table)
    return BuildDiagnostics(
        u_lo=float(knots[1]),
        u_hi=float(knots[-1]),
        log_rect_area=log_area,
        rejection_bound=float(min(1.0, math.exp(log_area - step.log_a))),
        n_knots=knots.size,
    )


def build_envelope(target: WeightedTarget, config: SamplerConfig = SamplerConfig()) -> Envelope:
    """Select knots and build the envelope.

    Level knots (``knot_method="level"``) give ``level_envelope``'s cells:
    two log_w calls and no endpoint solve. Their knot table, from u = 0 to
    u_hi = 1, is built only when read.

    The greedy and equal knots cover a descent window [u_lo, u_hi], both in
    closed form with no search. u_lo is find_u_lo's: the smaller of w at
    the two support ends over c (w = 0 at an infinite end), floored at
    DESCENT_TOL. u_hi is find_u_hi's: 1 on every base, since c is the
    largest w on the support, attained at x_mode. The table gains a
    head knot at u = 0 with the full support as its window and log P(A_0)
    as its height, so the piece on [0, u_lo) dominates P(A_u) whatever u_lo is.
    The extra rectangle is counted in the rejection bound, and adaptive
    insertion can split it like any other.
    """
    if config.knot_method == "level":
        return level_envelope(target)
    u_lo = find_u_lo(target)
    u_hi = find_u_hi(target, u_lo)
    if config.knot_method == "equal":
        table = equal_spaced_knots(target, u_lo, u_hi, config.n_init_knots)
    else:
        table = select_knots(target, u_lo, u_hi, config.n_init_knots, config.midpoint_kind, config.omega)
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

    def __init__(self, target: WeightedTarget, config: SamplerConfig = SamplerConfig(), step: Envelope | None = None):
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

    def _propose(self, m: int, rng: Rng, report: AggregateReport, since: int):
        """Propose m candidates; return the accepted x in order and the
        rejections since the last accepted draw, given ``since`` before it.

        Takes two uniforms per candidate as a pair (v_u, v_x), as ``draw``
        does, which the envelope turns into (u, x), and evaluates log w
        once per candidate. Rejections are counted on ``report``;
        more than MAX_REJECTS since the last accepted draw, counted at the
        block's end, raise SamplerStallError. In adaptive mode the rejected
        u become knots (``_insert``).
        """
        uniform, target = rng.generator.uniform, self.target
        v = uniform(size=(m, 2))
        u, x = self.step.propose(target.base, v[:, 0], v[:, 1])
        with np.errstate(divide="ignore"):
            accept = target.log_w(x) > np.log(u) + target.log_c
        rejected = u[~accept]
        report.n_rejected += rejected.size
        x = x[accept]
        since = int(accept[::-1].argmax()) if x.size else since + m
        self._check_stall(since, report.n_draws + x.size)
        if self.config.adapt and rejected.size:
            report.knots_inserted += self._insert(rejected)
        return x, since

    def _insert(self, u) -> int:
        """Insert rejected candidates u as knots while the table has fewer
        than MAX_KNOTS; return how many went in. Each A_u is solved from its
        piece's window, which brackets it. A level envelope gives way here to
        the StepApprox of its table with the new knots."""
        table = self.step.table
        room = MAX_KNOTS - table.knots.size
        if room <= 0:
            return 0
        u = np.atleast_1d(u)[:room]
        j = np.minimum(table.knots.searchsorted(u, side="right") - 1, table.knots.size - 2)
        x1, x2, log_p = self.target.superlevel(u, (table.x1[j], table.x2[j]))
        self.step, inserted = insert_knot(self.step, u, log_p, x1, x2)
        return inserted

    def _check_stall(self, n_rejected: int, n_draws: int) -> None:
        """Raise SamplerStallError past MAX_REJECTS rejections in a row."""
        if n_rejected > MAX_REJECTS:
            raise SamplerStallError(
                f"exceeded {MAX_REJECTS} rejections since the last accepted draw ({n_draws} accepted); "
                f"bound={self.rejection_bound():.3g}, knots={self.step.table.knots.size}"
            )

    def draw(self, rng: Rng) -> DirectDrawReport:
        """One exact draw from the weighted target.

        Runs candidates one at a time on Python floats until one is
        accepted, each from two uniforms and with the accept rule of
        ``sample``: log w(x) > log u + log c. In adaptive mode each rejected
        u becomes a knot before the next candidate, so on the same stream a
        draw equals ``sample(1)``.
        """
        uniform, target, adapt = rng.generator.uniform, self.target, self.config.adapt
        log_w, log_c, base = target.log_w, target.log_c, target.base
        n_rejected = knots_inserted = 0
        while True:
            u, x = self.step.propose(base, uniform(), uniform())
            log_u = np.log(u) if u > 0.0 else -math.inf
            if log_w(x) > log_u + log_c:
                return DirectDrawReport(x=x, u_accepted=u, n_rejected=n_rejected, knots_inserted=knots_inserted)
            n_rejected += 1
            self._check_stall(n_rejected, 0)
            if adapt:
                knots_inserted += self._insert(u)

    def sample(self, n: int, rng: Rng):
        """n exact draws, proposed in vectorized blocks of at most MAX_BLOCK.

        Rejected candidates in a block are inserted as knots (adaptive
        mode) before the next block is proposed. Adaptive blocks start
        small and double, so early rejections tighten the envelope before
        the bulk of the candidates is committed. No block proposes past the
        n-th acceptance, so without adaptation sample(n) is n ``draw`` calls.
        """
        if n < 0:
            raise DomainError("n must be nonnegative")
        report = AggregateReport()
        out = np.empty(n, dtype=float)
        block = 64 if self.config.adapt else MAX_BLOCK
        since = 0
        while report.n_draws < n:
            m = min(n - report.n_draws, block)
            block = min(2 * block, MAX_BLOCK)
            x, since = self._propose(m, rng, report, since)
            out[report.n_draws : report.n_draws + x.size] = x
            report.n_draws += x.size
        return out, report
