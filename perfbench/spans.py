"""Spans and work counters recorded from outside the stepdirect package.

Public entry points are wrapped at run time, at the attribute the caller
looks up when it makes the call: module functions as bound in the module
that calls them, methods on their class, and each target's ``log_w`` on
the instance that the target factories return. Nothing in the package is
edited, and ``installed`` restores every attribute when it exits.

Spans stay in memory until the run ends. A span's
self time is its duration minus the durations of its direct children;
children of one span never overlap, because the benchmark runs one chain
on one thread.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOT_PREFIX = "bench."

# (module, attribute, span name): plain spans, no counters.
SPAN_POINTS = [
    ("stepdirect.car", "draw_beta_car", "car.draw_beta"),
    ("stepdirect.car", "draw_eta", "car.draw_eta"),
    ("stepdirect.car", "draw_sigma2_car", "car.draw_sigma2"),
    ("stepdirect.car", "draw_tau2", "car.draw_tau2"),
    ("stepdirect.car", "draw_rho_direct", "car.rho_step"),
    ("stepdirect.car", "car_eigen_precompute", "car.eigen_precompute"),
    ("stepdirect.treg", "draw_beta_t", "treg.draw_beta"),
    ("stepdirect.treg", "draw_s", "treg.draw_s"),
    ("stepdirect.treg", "draw_sigma2_t", "treg.draw_sigma2"),
    ("stepdirect.treg", "draw_nu_direct", "treg.nu_step"),
    ("stepdirect.sampler", "build_sampler", "sampler.build"),
    ("stepdirect.sampler", "find_u_lo", "stepfn.descent_search"),
    ("stepdirect.sampler", "find_u_hi", "stepfn.descent_search"),
    ("stepdirect.sampler", "select_knots", "stepfn.knot_select"),
    ("stepdirect.sampler", "equal_spaced_knots", "stepfn.knot_select"),
    ("stepdirect.sampler", "build_step", "stepfn.build_step"),
    ("stepdirect.sampler", "step_quantile", "stepfn.step_quantile"),
    ("stepdirect.sampler", "step_quantile_many", "stepfn.step_quantile"),
    ("stepdirect.sampler", "step_logpdf_unnorm", "stepfn.step_logpdf"),
    ("stepdirect.target:WeightedTarget", "log_prob_Au", "target.log_prob_Au"),
    ("stepdirect.target:WeightedTarget", "truncated_draw", "target.truncated_draw"),
    ("stepdirect.target:WeightedTarget", "truncated_draw_many", "target.truncated_draw"),
    ("stepdirect.rngstats:Rng", "mvn_precision", "rngstats.mvn_precision"),
]

# Target factories whose returned instances get a counting log_w.
FACTORY_POINTS = [
    ("stepdirect.car", "rho_target", "car.rho_target"),
    ("stepdirect.treg", "nu_target", "treg.nu_target"),
    ("stepdirect.cmp", "cmp_target", "cmp.target"),
]

BISECT_OWNERS = ["stepdirect.car", "stepdirect.treg", "stepdirect.cmp", "stepdirect.stepfn"]


class Recorder:
    """In-memory spans plus named counters.

    Each span is a list ``[name id, parent index, start ns, end ns]``; the
    parent index is -1 for a root.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.open = [-1]  # indices of the spans not yet finished, innermost last
        self.counts: Counter = Counter()
        self.targets: list[list] = []  # one [name, calls, points] per target instance

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def totals(self) -> Counter:
        """Counters plus log_w calls and points summed over target instances."""
        out = Counter(self.counts)
        out["target.instances"] = len(self.targets)
        out["target.log_w_calls"] = sum(t[1] for t in self.targets)
        out["target.log_w_points"] = sum(t[2] for t in self.targets)
        return out

    def work_counts(self) -> dict:
        """Every counter plus the per-instance log_w tallies, for exact comparison."""
        return {"counts": dict(self.counts), "targets": [tuple(t) for t in self.targets]}


def spanned(rec: Recorder, name: str, fn, after=None):
    """``fn`` wrapped in a span; ``after(result, args)`` runs once it returns.

    The span bookkeeping is inlined, since the innermost wrappers run a few
    hundred times per Gibbs iteration.
    """
    nid = rec.name_id(name)
    clock, spans, open_ = rec.clock, rec.spans, rec.open

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = [nid, open_[-1], clock(), 0]
        open_.append(len(spans))
        spans.append(record)
        try:
            out = fn(*args, **kwargs)
        finally:
            record[3] = clock()
            open_.pop()
        if after is not None:
            after(out, args)
        return out

    return wrapper


def counting_log_w(rec: Recorder, target):
    """A log_w for one target instance that counts its calls and points."""
    tally = [target.name, 0, 0]
    rec.targets.append(tally)

    def after(out, args):
        tally[1] += 1
        tally[2] += np.size(args[0])

    return spanned(rec, "target.log_w", target.log_w, after)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrappers(rec: Recorder, targets):
    """(owner object, attribute, wrapper) for every instrumented entry point."""
    out = [(t, "log_w", counting_log_w(rec, t)) for t in targets]
    for owner, attr, name in SPAN_POINTS:
        obj = _resolve(owner)
        out.append((obj, attr, spanned(rec, name, getattr(obj, attr))))

    def factory_after(target, _args):
        target.log_w = counting_log_w(rec, target)

    for owner, attr, name in FACTORY_POINTS:
        obj = _resolve(owner)
        out.append((obj, attr, spanned(rec, name, getattr(obj, attr), factory_after)))

    def bisect_after(result, _args):
        rec.counts["search.bisect_calls"] += 1
        rec.counts["search.bisect_iterations"] += result.iterations

    for owner in BISECT_OWNERS:
        obj = _resolve(owner)
        out.append((obj, "bisect", spanned(rec, "search.bisect", obj.bisect, bisect_after)))

    def insert_after(result, _args):
        rec.counts["stepfn.insert_knot_calls"] += 1
        rec.counts["stepfn.knots_inserted"] += int(result[1])

    sampler_mod = _resolve("stepdirect.sampler")
    out.append(
        (sampler_mod, "insert_knot", spanned(rec, "stepfn.insert_knot", sampler_mod.insert_knot, insert_after))
    )

    def draw_after(result, args):
        sampler = args[0]
        if isinstance(result, tuple):  # sample(n) -> (draws, AggregateReport)
            accepted, rejected = result[1].n_draws, result[1].n_rejected
        else:  # draw() -> DirectDrawReport
            accepted, rejected = 1, result.n_rejected
        c = rec.counts
        c["sampler.accepted"] += accepted
        c["sampler.proposed"] += accepted + rejected
        c["sampler.samplers"] += 1
        c["sampler.knots_final"] += int(sampler.step.table.knots.size)
        c["sampler.rejection_bound_built"] += sampler.diagnostics.rejection_bound
        c["sampler.rejection_bound_final"] += sampler.rejection_bound()

    direct = sampler_mod.DirectSampler
    for attr in ("draw", "sample"):
        out.append((direct, attr, spanned(rec, "sampler.draw", getattr(direct, attr), draw_after)))

    weighted = _resolve("stepdirect.target:WeightedTarget")
    endpoints = weighted.interval_endpoints

    @functools.wraps(endpoints)
    def counted_endpoints(*args, **kwargs):
        rec.counts["target.endpoint_solves"] += 1
        return endpoints(*args, **kwargs)

    out.append((weighted, "interval_endpoints", counted_endpoints))
    return out


@contextmanager
def installed(rec: Recorder, targets=()):
    """Instrument the package for the duration of the block, then restore it.

    ``targets`` are instances built before the block whose log_w should be
    counted too; instances that the factories return inside the block are
    counted without being named here.
    """
    patches = _wrappers(rec, targets)
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, wrapper in patches:
            setattr(obj, attr, wrapper)
        yield rec
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


# -- analysis ----------------------------------------------------------------


class SpanTable:
    """Self and inclusive time per span name, split by root span.

    Root spans are the benchmark's own (names starting with ``bench.``);
    a ``phase`` is the name of a root, and selects the spans below it.
    """

    def __init__(self, rec: Recorder):
        n = len(rec.spans)
        table = np.array(rec.spans, dtype=np.int64).reshape(n, 4)
        self.names = list(rec.names)
        self.nid = table[:, 0]
        self.parent = table[:, 1]
        self.dur = (table[:, 3] - table[:, 2]).astype(float)
        has_parent = self.parent >= 0
        child = np.zeros(n)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child
        # Walk every span up to its root, noting whether an ancestor shares its
        # name: only the outermost span of a name counts towards inclusive time.
        self.root = np.arange(n)
        anc = self.parent.copy()
        nested = np.zeros(n, dtype=bool)
        while np.any(anc >= 0):
            live = np.flatnonzero(anc >= 0)
            nested[live] |= self.nid[anc[live]] == self.nid[live]
            self.root[live] = anc[live]
            anc[live] = self.parent[anc[live]]
        self.outermost = ~nested

    def _in_phase(self, phase: str) -> np.ndarray:
        if phase not in self.names:
            return np.zeros(self.nid.size, dtype=bool)
        return self.nid[self.root] == self.names.index(phase)

    def _sum_by_name(self, mask, values) -> dict:
        sums = np.bincount(self.nid[mask], weights=values[mask], minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def phase_ns(self, phase: str) -> float:
        """Total duration of the root spans called ``phase``."""
        return self.inclusive_ns(phase).get(phase, 0.0)

    def self_ns_by_name(self, phase: str) -> dict:
        return self._sum_by_name(self._in_phase(phase), self.self_ns)

    def inclusive_ns(self, phase: str) -> dict:
        return self._sum_by_name(self._in_phase(phase) & self.outermost, self.dur)

    def top_level_ns(self, phase: str) -> dict:
        """Inclusive time of the spans called directly by the phase's roots."""
        top = self._in_phase(phase) & (self.parent >= 0)
        top[top] = self.parent[top] == self.root[top]
        return {k: v for k, v in self._sum_by_name(top, self.dur).items() if v}

    def layer_self_ns(self, phase: str) -> dict:
        """Self time per layer (the span name's prefix), roots excluded."""
        out: dict = {}
        for name, ns in self.self_ns_by_name(phase).items():
            if ns and not name.startswith(ROOT_PREFIX):
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + ns
        return out

    def coverage(self, phase: str) -> float:
        """Share of the phase's root time that layer spans account for."""
        total = self.phase_ns(phase)
        return sum(self.layer_self_ns(phase).values()) / total if total > 0 else 0.0
