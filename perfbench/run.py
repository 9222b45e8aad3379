"""Benchmark of stepdirect: one workload per process, one chain, closed loop.

    python3 perfbench/run.py --workload treg-nu --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. ``--trace 0`` measures for ``--seconds`` untraced and
reports the end-to-end metrics named in ``BENCHMARK.json``. ``--trace 1``
runs every other chunk with spans on every layer boundary and reports the
per-layer metrics. Either way the outputs are checked, and
a fixed pass is run twice under counters, whose counts must repeat exactly.
Times are scaled to a reference speed of the host, measured next to each
timed piece of work (see ``reference_seconds``); the unscaled figures are
printed too. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
machine and, with tracing, the layer table.

Only the standard library is imported at module level: BLAS threads are
pinned through the environment, which works only before numpy loads.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OP, SETUP = "bench.op", "bench.setup"
MIN_COVERAGE = 0.9
# The modules the workloads use: their import is part of the set-up cost.
PACKAGE_MODULES = ("stepdirect", "stepdirect.car", "stepdirect.cmp", "stepdirect.treg")
# Timings are reported as on a host that runs reference_seconds' loop this
# many times a second (roughly its median rate on a 2-vCPU Xeon VM).
REFERENCE_PER_S = 600.0


def pin_blas_threads() -> int:
    """Pin BLAS threads to the CPUs this process may use; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(ROOT),
    }


def reference_seconds() -> float:
    """Time one pass of a fixed numpy/scipy loop that does not use stepdirect.

    The CPU speed of a shared host drifts by up to twice over minutes, for
    all code alike. Timing this loop next to each measurement gives the
    host's speed at that moment, and ``scaled`` divides it out.
    """
    import numpy as np
    from scipy.special import gammaln

    t0 = time.perf_counter()
    x = np.linspace(0.5, 50.0, 50)
    wide = np.linspace(0.5, 50.0, 2000)
    m = np.outer(x[:40], x[:40])
    acc = 0.0
    for i in range(40):
        y = gammaln(x + i) - 0.5 * np.log(x)
        acc += float(np.logaddexp.reduce(y)) + float(np.where(y > 0.0, y, 0.0).sum())
        acc += float(np.log1p(np.exp(-wide / (i + 1))).sum()) + float((m @ x[:40]).sum())
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` as they would read on a host running the reference at REFERENCE_PER_S."""
    return seconds / (0.5 * (ref_before + ref_after) * REFERENCE_PER_S)


def run_chunks(wl, st, tally, seconds: float, rec=None) -> tuple[list, list]:
    """Chunks back to back for ``seconds``: scaled ops per second of each completed chunk.

    The reference loop runs before every chunk and once after the last.
    With a recorder, every other chunk runs instrumented, so that the traced
    and untraced chunks see the same state of the host. Returns the rates of
    the untraced and of the traced chunks, and prints the unscaled figures.
    """
    import spans
    from stepdirect.errors import StepDirectError

    root = None if rec is None else spans.spanned(rec, OP, wl.chunk)
    done = []  # (traced, seconds, reference seconds before the chunk)
    stop = time.perf_counter() + seconds
    for i in itertools.count():
        traced = root is not None and i % 2 == 1
        tally.attempted += wl.chunk_ops
        ref = reference_seconds()
        try:
            with spans.installed(rec, wl.targets(st)) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = (root if traced else wl.chunk)(st)
                dt = time.perf_counter() - t0
        except StepDirectError as exc:
            tally.fail(wl.chunk_ops, f"{type(exc).__name__}: {exc}")
        else:
            done.append((traced, dt, ref))
            wl.check(st, out, tally)
        if time.perf_counter() >= stop:
            break
    refs = [ref for _, _, ref in done] + [reference_seconds()]
    rates: tuple[list, list] = ([], [])
    for (traced, dt, ref), ref_after in zip(done, refs[1:]):
        rates[traced].append(wl.chunk_ops / scaled(dt, ref, ref_after))
    raw = [wl.chunk_ops / dt for traced, dt, _ in done if not traced]
    host = [1.0 / r for r in refs]
    print(
        f"timing: {len(done)} chunks of {wl.chunk_ops} ops; unscaled ops/s median {statistics.median(raw or [0]):.4g}"
        f" (min {min(raw or [0]):.4g}, max {max(raw or [0]):.4g}); reference loops/s median"
        f" {statistics.median(host):.4g} (min {min(host):.4g}, max {max(host):.4g})"
    )
    return rates


def counted_pass(wl, seed: int):
    """Set-up plus one chunk under full instrumentation.

    Returns the recorder and the counter totals at the end of set-up. The
    pass is fixed work, so every count in it must repeat exactly.
    """
    import spans

    rec = spans.Recorder()
    with spans.installed(rec):
        st = spans.spanned(rec, SETUP, wl.setup)(seed)
        setup_totals = rec.totals()
        spans.spanned(rec, OP, wl.chunk)(st)
    return rec, setup_totals


def end_to_end_metrics(rates: list, import_s: float, setup_times: list, peak_rss_mb: float) -> dict:
    """``rates`` and the times are already scaled to the reference host."""
    return {
        "ops_per_s": statistics.median(rates),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def import_seconds(first: float, first_ref: float, fresh: int = 4) -> float:
    """Median scaled import time: ``first`` from this process, plus ``fresh`` new interpreters.

    ``first_ref`` is a reference time taken just after the first import,
    which ran before numpy was loaded.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in PACKAGE_MODULES)
        + "; print(time.perf_counter() - t)"
    )
    times = [scaled(first, first_ref, first_ref)]
    for _ in range(fresh):
        ref = reference_seconds()
        out = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True, timeout=120
        )
        times.append(scaled(float(out.stdout), ref, reference_seconds()))
    return statistics.median(times)


def layer_metrics(wl, traced, traced_ops: int, counted, setup_totals, overhead: float, import_s: float) -> dict:
    """Per-layer metrics: times from the traced chunks, counts from the counted pass."""
    import spans

    own = traced.self_ns_by_name(OP)
    incl = traced.inclusive_ns(OP)
    setup_incl = spans.SpanTable(counted).inclusive_ns(SETUP)
    counts = counted.totals() - setup_totals  # counts of the counted chunk alone
    counted_ops = wl.chunk_ops
    samplers = max(counts["sampler.samplers"], 1)

    def ms_per_op(table, name):
        return table.get(name, 0.0) / 1e6 / traced_ops

    def per_op(name):
        return counts[name] / counted_ops

    def setup_ms(name):
        return setup_incl.get(name, 0.0) / 1e6

    return {
        "target.log_w_points_per_op": per_op("target.log_w_points"),
        "target.log_w_calls_per_op": per_op("target.log_w_calls"),
        "target.endpoint_solves_per_op": per_op("target.endpoint_solves"),
        "target.log_w_ms_per_op": ms_per_op(own, "target.log_w"),
        "target.log_prob_Au_self_ms_per_op": ms_per_op(own, "target.log_prob_Au"),
        "target.truncated_draw_self_ms_per_op": ms_per_op(own, "target.truncated_draw"),
        "target.setup_log_w_points": float(setup_totals["target.log_w_points"]),
        "stepfn.descent_search_ms": setup_ms("stepfn.descent_search"),
        "stepfn.setup_knot_select_ms": setup_ms("stepfn.knot_select"),
        "stepfn.knot_select_ms_per_op": ms_per_op(incl, "stepfn.knot_select"),
        "stepfn.build_step_ms_per_op": ms_per_op(incl, "stepfn.build_step"),
        "stepfn.step_quantile_ms_per_op": ms_per_op(incl, "stepfn.step_quantile"),
        "stepfn.insert_knot_calls": per_op("stepfn.insert_knot_calls"),
        "stepfn.insert_knot_ms": ms_per_op(incl, "stepfn.insert_knot"),
        "sampler.build_ms_per_op": ms_per_op(incl, "sampler.build"),
        "sampler.setup_build_ms": setup_ms("sampler.build"),
        "sampler.draw_self_ms_per_op": ms_per_op(own, "sampler.draw"),
        "sampler.accept_ratio": counts["sampler.accepted"] / max(counts["sampler.proposed"], 1),
        "sampler.rejection_bound_built": counts["sampler.rejection_bound_built"] / samplers,
        "sampler.rejection_bound_final": counts["sampler.rejection_bound_final"] / samplers,
        "sampler.knots_final": counts["sampler.knots_final"] / samplers,
        "search.bisect_calls_per_op": per_op("search.bisect_calls"),
        "search.bisect_iterations_per_op": per_op("search.bisect_iterations"),
        "search.setup_bisect_iterations": float(setup_totals["search.bisect_iterations"]),
        "cmp.target_build_ms": setup_ms("cmp.target"),
        "car.draw_eta_self_ms_per_iter": ms_per_op(own, "car.draw_eta"),
        "car.draw_tau2_ms_per_iter": ms_per_op(incl, "car.draw_tau2"),
        "car.draw_beta_ms_per_iter": ms_per_op(incl, "car.draw_beta"),
        "car.draw_sigma2_ms_per_iter": ms_per_op(incl, "car.draw_sigma2"),
        "car.rho_step_ms_per_iter": ms_per_op(incl, "car.rho_step"),
        "car.rho_target_ms_per_iter": ms_per_op(incl, "car.rho_target"),
        "car.eta_flops_per_iter": wl.eta_flops,
        "car.eigen_precompute_ms": setup_ms("car.eigen_precompute"),
        "treg.draw_beta_ms_per_iter": ms_per_op(incl, "treg.draw_beta"),
        "treg.draw_s_ms_per_iter": ms_per_op(incl, "treg.draw_s"),
        "treg.draw_sigma2_ms_per_iter": ms_per_op(incl, "treg.draw_sigma2"),
        "treg.nu_step_ms_per_iter": ms_per_op(incl, "treg.nu_step"),
        "treg.nu_target_ms_per_iter": ms_per_op(incl, "treg.nu_target"),
        "rngstats.mvn_precision_ms_per_op": ms_per_op(incl, "rngstats.mvn_precision"),
        "trace.overhead_frac": overhead,
        "trace.self_cover_frac": traced.coverage(OP),
        "setup.import_s": import_s,
    }


def print_layer_table(wl, traced, traced_ops: int) -> None:
    total = traced.phase_ns(OP)
    ms = 1e-6 / traced_ops
    print(f"layer table ({wl.name}, traced, {traced_ops} ops, {total * ms:.4f} ms/op):")
    print(f"  {'layer':<10} {'self ms/op':>12} {'share':>7}")
    layers = sorted(traced.layer_self_ns(OP).items(), key=lambda kv: -kv[1])
    for layer, ns in layers + [("(loop)", traced.self_ns_by_name(OP).get(OP, 0.0))]:
        print(f"  {layer:<10} {ns * ms:12.4f} {ns / total:7.1%}")
    print("  steps called by the loop (inclusive):")
    for name, ns in sorted(traced.top_level_ns(OP).items(), key=lambda kv: -kv[1]):
        print(f"    {name:<28} {ns * ms:10.4f} ms/op {ns / total:7.1%}")
    if wl.eta_flops:
        print(f"  car.eta_flops_per_iter {wl.eta_flops:.4g} (computed from array sizes)")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "stepdirect"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no package sources at {package}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    for module in PACKAGE_MODULES:
        importlib.import_module(module)
    first_import_s = time.perf_counter() - t0
    import stepdirect

    if Path(stepdirect.__file__).resolve().parent != package:
        print(f"perfbench: imported stepdirect from {stepdirect.__file__}, not {package}", file=sys.stderr)
        return 2

    import spans
    import workloads

    print("env " + json.dumps(environment(nproc), sort_keys=True))
    import_s = import_seconds(first_import_s, reference_seconds())
    wl = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(wl.setup_reps):
        ref = reference_seconds()
        t0 = time.perf_counter()
        st = wl.setup(args.seed)
        setup_times.append(scaled(time.perf_counter() - t0, ref, reference_seconds()))

    tally = workloads.Tally()
    rec = spans.Recorder() if args.trace else None
    plain, traced_rates = run_chunks(wl, st, tally, args.seconds, rec)
    if not plain or (args.trace and not traced_rates):
        print(f"perfbench: no chunk completed; first failure: {tally.first_error}", file=sys.stderr)
        return 1
    plain = plain[1:] if len(plain) > 1 else plain  # the first chunk warms up
    if args.trace:
        traced = spans.SpanTable(rec)
        traced_ops = wl.chunk_ops * len(traced_rates)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    wl.finish(st, tally)

    (counted, setup_totals), (again, again_setup) = counted_pass(wl, args.seed), counted_pass(wl, args.seed)
    repeats = counted.work_counts() == again.work_counts() and setup_totals == again_setup
    print(f"check counts repeat on seed {args.seed}: {'PASS' if repeats else 'FAIL'}")
    if tally.failed:
        print(f"check outputs: FAIL, {tally.failed} of {tally.attempted} ops; first: {tally.first_error}")
    else:
        print(f"check outputs: PASS, {tally.attempted} ops")

    if args.trace:
        print_layer_table(wl, traced, traced_ops)
        coverage = traced.coverage(OP)
        verdict = "PASS" if coverage >= MIN_COVERAGE else "FAIL (a blocking step has no span)"
        print(f"check layer self times cover {coverage:.1%} of traced op time: {verdict}")
        overhead = statistics.median(plain) / statistics.median(traced_rates) - 1.0
        values = layer_metrics(wl, traced, traced_ops, counted, setup_totals, overhead, import_s)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(plain, import_s, setup_times, peak_rss_mb)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        print(f"perfbench: metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": bool(repeats and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
