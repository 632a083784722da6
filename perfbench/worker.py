"""One benchmark child process: set up, run one compile pass, check, report.

``run.py`` starts this script in a fresh interpreter for every step and
reads the JSON object it prints as its last stdout line.  Modes:

* ``tables``  — make sure the enumeration tables the workload loads are
  on disk, building missing ones (never timed);
* ``setup``   — time the workload's set-up only, in main-thread CPU
  seconds;
* ``measure`` — set up, run one cold pass over the workload's items,
  check every output against the oracle, and report the figures.  With
  ``--trace 1`` the pass runs with the layer wrappers of :mod:`tracer`
  installed.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Spans each workload must record at least one call of in a traced run.
PREDICTED_SPANS = {
    "trasyn-suite": (
        "enumeration.table_load", "lower", "synthesize_lowered", "cache",
        "trasyn", "trasyn.synthesize", "trasyn.mps_build", "trasyn.sample",
        "trasyn.beam", "trasyn.refine_pairs", "trasyn.simplify",
    ),
    "routed-esp": (
        "lower", "route", "synthesize_lowered", "cache", "gridsynth",
        "schedule", "esp",
    ),
}


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def setup(workload, tracer):
    """Load the workload's tables and inputs.

    Returns ``(cpu_s, wall_s)``: CPU seconds of the main thread since
    the process started (interpreter start-up included) and wall seconds
    since this script started.  Set-up runs on the main thread alone;
    OpenBLAS's worker threads only spin-wait after numpy starts them, and
    how much CPU that burns depends on where the scheduler puts them
    (about 0.13 s, which flipped set-up medians between runs by 25%).
    """
    from repro.enumeration import get_table

    for budget in workload.table_budgets():
        with tracer.span("enumeration.table_load") if tracer else nullcontext():
            get_table(budget)
    workload.setup()
    return time.thread_time(), time.perf_counter() - SCRIPT_START


def run_pass(workload, tracer):
    """One cold pass; a dict of its timings and ``(outputs, cache)``.

    ``cpu_s`` (all threads, reaped children included) is the measured
    figure; ``wall_s`` is kept as metadata: its ratio to CPU time shows
    BLAS parallelism and time lost waiting for a CPU held by other load.
    """
    with tracing.installed(tracer) if tracer else nullcontext():
        t0, c0 = time.perf_counter(), workloads.cpu_seconds()
        item_wall, item_cpu, outputs, cache = workload.run_pass()
        cpu_s = workloads.cpu_seconds() - c0
        wall_s = time.perf_counter() - t0
    timings = {
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "item_cpu_s": item_cpu,
        "item_wall_s": item_wall,
    }
    return timings, outputs, cache


def check_outputs(workload, outputs, cache):
    """Oracle-check each output.

    Returns ``(qualities, failures, words, words_met)``: the checked
    figures of each passing item, one message per failed item, and how
    many synthesized words there were and how many met the requested eps.
    """
    inputs = dict(workload.inputs)
    qualities, failures = [], []
    for name, out in outputs:
        if isinstance(out, Exception):
            failures.append(f"{name}: raised {type(out).__name__}: {out}")
            continue
        try:
            qualities.append(workload.quality(inputs[name], out))
        except oracle.OracleError as exc:
            failures.append(f"{name}: oracle: {exc}")
    eps = workload.requested_eps()
    words = len(cache.words)
    met = sum(1 for err, _ in cache.words if err <= eps)
    return qualities, failures, words, met


def layer_metrics(tracer, cache):
    """Per-layer figures from one traced pass."""
    calls, self_s = tracer.calls, tracer.self_s
    counts, maxima = tracer.counts, tracer.maxima
    m = {
        "enumeration.table_load.self_s": self_s["enumeration.table_load"],
        "lower.calls": calls["lower"],
        "lower.self_s": self_s["lower"],
        "lower.rotations_out": counts["lower.rotations_out"],
        "route.calls": calls["route"],
        "route.self_s": self_s["route"],
        "route.swaps": counts["route.swaps"],
        "synthesize_lowered.calls": calls["synthesize_lowered"],
        "synthesize_lowered.self_s": self_s["synthesize_lowered"],
        "cache.lookups": calls["cache"],
        "cache.self_s": self_s["cache"],
        "trasyn.calls": calls["trasyn"],
        "trasyn.rungs": calls["trasyn.synthesize"],
        "trasyn.rungs_per_call": (
            calls["trasyn.synthesize"] / calls["trasyn"] if calls["trasyn"] else 0.0
        ),
        "trasyn.samples_drawn": counts["trasyn.samples_drawn"],
        "trasyn.threshold_misses": counts["trasyn.threshold_misses"],
        "trasyn.err_ratio.max": maxima["trasyn.err_ratio.max"],
        "trasyn.synthesize.self_s": self_s["trasyn.synthesize"],
        "trasyn.mps_build.self_s": self_s["trasyn.mps_build"],
        "trasyn.sample.self_s": self_s["trasyn.sample"],
        "trasyn.beam.self_s": self_s["trasyn.beam"],
        "trasyn.refine_pairs.self_s": self_s["trasyn.refine_pairs"],
        "trasyn.simplify.self_s": self_s["trasyn.simplify"],
        "gridsynth.calls": calls["gridsynth"],
        "gridsynth.self_s": self_s["gridsynth"],
        "gridsynth.threshold_misses": counts["gridsynth.threshold_misses"],
        "schedule.calls": calls["schedule"],
        "schedule.self_s": self_s["schedule"],
        "esp.calls": calls["esp"],
        "esp.self_s": self_s["esp"],
    }
    stats = cache.stats()
    m["cache.hits"] = stats.hits
    m["cache.computes"] = stats.computes
    m["cache.hit_rate"] = m["cache.hits"] / m["cache.lookups"] if m["cache.lookups"] else 0.0
    return m


def measure(args, workload):
    tracer = tracing.Tracer() if args.trace else None
    setup_cpu_s, setup_wall_s = setup(workload, tracer)
    timings, outputs, cache = run_pass(workload, tracer)
    qualities, failures, words, met = check_outputs(workload, outputs, cache)
    esps = [q.esp for q in qualities if q.esp is not None]
    report = {
        "setup_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
        **timings,
        "items": len(outputs),
        "failures": failures,
        "errors": [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "t_count": sum(q.t_count for q in qualities),
        "clifford_count": sum(q.clifford_count for q in qualities),
        "synthesis_error_sum": sum(q.synthesis_error for q in qualities),
        "words": words,
        "words_met": met,
        # No target means no calibrated error events: ESP 1 by the
        # compiler's own convention for uncalibrated variants.
        "esp_mean": statistics.fmean(esps) if esps else 1.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, cache)
        missing = [
            s for s in PREDICTED_SPANS[args.workload] if tracer.calls[s] == 0
        ]
        report["errors"] = [f"traced span {s!r} recorded no calls" for s in missing]
    return report


def ensure_tables(workload):
    from repro.enumeration import get_table

    root = os.environ["REPRO_CACHE_DIR"]
    os.makedirs(root, exist_ok=True)
    before = set(os.listdir(root))
    start = time.perf_counter()
    for budget in workload.table_budgets():
        get_table(budget)
    return {
        "budgets": workload.table_budgets(),
        "built": sorted(set(os.listdir(root)) - before),
        "seconds": time.perf_counter() - start,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("tables", "setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.mode == "tables":
            report = ensure_tables(workload)
        elif args.mode == "setup":
            cpu_s, wall_s = setup(workload, None)
            report = {"setup_s": cpu_s, "setup_wall_s": wall_s}
        else:
            report = measure(args, workload)
    except Exception:
        traceback.print_exc()
        return 1
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
