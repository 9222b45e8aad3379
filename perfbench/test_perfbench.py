"""Tests for the benchmark's own code: span arithmetic, counters, metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
import stepdirect.cmp as cmp_mod
import stepdirect.sampler as sampler_mod
import stepdirect.treg as treg_mod
from stepdirect.rngstats import Rng
from stepdirect.search import BisectionSpec
from stepdirect.target import WeightedTarget

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
LAYERS = {"target", "stepfn", "sampler", "search", "cmp", "car", "treg", "rngstats", "trace", "setup"}


def fake_clock(*ticks):
    return iter(ticks).__next__


class TestSpanArithmetic:
    def nested(self):
        """root 0..100 holding x.a 10..50 (x.b 20..30, x.a 32..40) and y.c 60..90."""
        rec = spans.Recorder(clock=fake_clock(0, 10, 20, 30, 32, 40, 50, 60, 90, 100, 200, 210, 215, 230))
        leaf = spans.spanned(rec, "x.b", lambda: None)
        inner_a = spans.spanned(rec, "x.a", lambda: None)

        def outer():
            leaf()
            inner_a()

        outer_a = spans.spanned(rec, "x.a", outer)
        c = spans.spanned(rec, "y.c", lambda: None)

        def op():
            outer_a()
            c()

        spans.spanned(rec, "bench.op", op)()
        spans.spanned(rec, "bench.setup", c)()  # 200..230 holding y.c 210..215
        return spans.SpanTable(rec)

    def test_self_time_subtracts_direct_children(self):
        t = self.nested()
        own = t.self_ns_by_name("bench.op")
        assert own["x.a"] == (40 - 10 - 8) + 8
        assert own["x.b"] == 10
        assert own["y.c"] == 30
        assert own["bench.op"] == 100 - 40 - 30

    def test_inclusive_time_counts_only_outermost_span_of_a_name(self):
        t = self.nested()
        incl = t.inclusive_ns("bench.op")
        assert incl["x.a"] == 40
        assert incl["y.c"] == 30
        assert t.phase_ns("bench.op") == 100

    def test_phases_are_split_by_root(self):
        t = self.nested()
        assert t.self_ns_by_name("bench.setup")["y.c"] == 5
        assert t.phase_ns("bench.setup") == 30
        assert t.phase_ns("bench.missing") == 0.0

    def test_layers_coverage_and_top_level(self):
        t = self.nested()
        assert t.layer_self_ns("bench.op") == {"x": 40.0, "y": 30.0}
        assert t.coverage("bench.op") == pytest.approx(0.7)
        assert t.top_level_ns("bench.op") == {"x.a": 40.0, "y.c": 30.0}

    def test_span_closes_when_the_call_raises(self):
        rec = spans.Recorder(clock=fake_clock(0, 5, 7, 9))

        def boom():
            raise ValueError("x")

        def op():
            with pytest.raises(ValueError):
                spans.spanned(rec, "x.boom", boom)()

        spans.spanned(rec, "bench.op", op)()
        t = spans.SpanTable(rec)
        assert t.inclusive_ns("bench.op")["x.boom"] == 2
        assert rec.open == [-1]


class TestCounters:
    def test_factory_targets_count_log_w_calls_and_points(self):
        rec = spans.Recorder()
        with spans.installed(rec):
            target = treg_mod.nu_target(treg_mod.NuTargetParams(n=50, A=40.0, a_nu=0.1, b_nu=100.0))
            target.log_w(np.linspace(1.0, 5.0, 5))
            target.log_w(3.0)
        assert rec.targets == [[target.name, 2, 6]]
        totals = rec.totals()
        assert (totals["target.log_w_calls"], totals["target.log_w_points"]) == (2, 6)

    def test_bisection_iterations_come_from_the_result(self):
        rec = spans.Recorder()
        spec = BisectionSpec(x_lo=0.0, x_hi=1.0, predicate=lambda x: x > 0.3, tolerance=1e-3)
        with spans.installed(rec):
            result = treg_mod.bisect(spec)
        assert rec.counts["search.bisect_calls"] == 1
        assert rec.counts["search.bisect_iterations"] == result.iterations > 0

    def test_sampler_counts_accepted_and_proposed(self):
        rec = spans.Recorder()
        with spans.installed(rec):
            s = sampler_mod.DirectSampler(cmp_mod.cmp_target(cmp_mod.CmpParams(2.0, 5.0)))
            _, report = s.sample(500, Rng(0))
        assert rec.counts["sampler.accepted"] == 500
        assert rec.counts["sampler.proposed"] == 500 + report.n_rejected
        assert rec.counts["target.endpoint_solves"] > 0

    def test_prebuilt_targets_are_counted_and_restored(self):
        target = cmp_mod.cmp_target(cmp_mod.CmpParams(2.0, 0.5))
        original = target.log_w
        rec = spans.Recorder()
        with spans.installed(rec, [target]):
            target.log_prob_Au(np.array([0.2, 0.5]))
        assert target.log_w is original
        assert rec.totals()["target.log_w_points"] > 0

    def test_every_patched_attribute_is_restored(self):
        before = (treg_mod.nu_target, treg_mod.bisect, sampler_mod.build_sampler,
                  WeightedTarget.__dict__["log_prob_Au"], sampler_mod.DirectSampler.__dict__["sample"])
        with spans.installed(spans.Recorder()):
            assert treg_mod.nu_target is not before[0]
        after = (treg_mod.nu_target, treg_mod.bisect, sampler_mod.build_sampler,
                 WeightedTarget.__dict__["log_prob_Au"], sampler_mod.DirectSampler.__dict__["sample"])
        assert after == before

    def test_counted_pass_repeats_exactly(self):
        wl = workloads.WORKLOADS["treg-nu"]
        first, first_setup = run.counted_pass(wl, 3)
        second, second_setup = run.counted_pass(wl, 3)
        assert first.work_counts() == second.work_counts()
        assert first_setup == second_setup
        assert first.totals()["target.log_w_calls"] > 0


class TestMetricNames:
    def test_spec_follows_the_grammar(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert 1 <= len(SPEC["paths"]) <= 16 and all(PATH.fullmatch(p) and ".." not in p for p in SPEC["paths"])
        assert all(not c.startswith("/") and ".." not in c for c in SPEC["command"])
        assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
        assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["end_to_end"]) <= 16
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(n) for n in names)
        for w in SPEC["workloads"]:
            assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for m in SPEC["end_to_end"]:
            assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        for m in SPEC["per_layer"]:
            assert set(m) == {"name", "unit", "better"}
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                          "bound": max(m["bound"] for m in SPEC["end_to_end"])}]

    def test_per_layer_names_are_layer_dot_metric(self):
        for m in SPEC["per_layer"]:
            layer, _, rest = m["name"].partition(".")
            assert layer in LAYERS and rest, m["name"]

    def test_code_produces_exactly_the_spec_metrics(self):
        empty = spans.SpanTable(spans.Recorder())
        counted = spans.Recorder()
        per_layer = run.layer_metrics(workloads.WORKLOADS["cmp-bulk"], empty, 1, counted, counted.totals(), 0.0, 0.5)
        assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
        e2e = run.end_to_end_metrics([1.0, 2.0], 0.5, [0.1, 0.2], 80.0)
        assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
