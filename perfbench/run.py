"""End-to-end compile benchmark for the repro Clifford+T compiler.

Usage, from the repository root::

    python3 perfbench/run.py --workload trasyn-suite --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

Every step runs in a fresh child interpreter (``worker.py``), one at a
time, against the sources in ``src/``:

1. make sure the enumeration tables the workload loads are on disk,
   building missing ones untimed (they live under ``.perfbench-cache/``);
2. time the workload's set-up in two set-up-only children; with the
   measuring children's own set-ups, ``setup_s`` is their median;
3. measure: one cold compile pass per child, children repeated while
   ``--seconds`` lasts (at least one), every output checked by the
   independent oracle.  With ``--trace 1`` one untraced and one traced
   child run, giving the per-layer figures and the tracing overhead.

Times are CPU seconds (user + system, all threads): on a shared host,
wall time also counts the time a child waits for a CPU held by other
load.  Wall times are printed in the metadata line.

Metric lines go to stdout as ``name value unit``; the last stdout line is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trasyn-suite", "routed-esp")
#: A run, with all of its children, ends well within 180 seconds.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child(args, env, deadline):
    """Run ``worker.py`` with ``args``; its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("run deadline reached before " + " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"child exited {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child printed nothing: {' '.join(args)}")
    return json.loads(lines[-1])


def source_fingerprint():
    """SHA-256 over ``src/**/*.py``: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """The checked-out commit when run from a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return ref[5:]


def declared_units(section):
    """``{metric: unit}`` of one section of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def measure_children(args, seconds, env, deadline):
    """Reports of one-pass measuring children, run until ``seconds`` is used.

    Each pass runs in a fresh interpreter, so every sample is a cold
    compile and a faster program earns more samples, never warmer ones.
    """
    reports, walls = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reports.append(child(args, env, deadline))
        walls.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(walls) > seconds:
            return reports


def run_workload(name, seed, seconds, trace, env, deadline):
    """Metrics, counts and metadata for one workload."""
    common = ["--workload", name, "--seed", str(seed)]
    tables = child(["--mode", "tables", *common], env, deadline)
    setup_runs = [
        child(["--mode", "setup", *common], env, deadline)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    setups = [r["setup_s"] for r in setup_runs]
    setup_walls = [r["setup_wall_s"] for r in setup_runs]
    measure = ["--mode", "measure", *common]
    if trace:
        plain = child(measure, env, deadline)
        reps = [child([*measure, "--trace", "1"], env, deadline)]
    else:
        reps = measure_children(measure, seconds, env, deadline)
    setups += [r["setup_s"] for r in reps]
    first = reps[0]
    # Per item, its median over the children; the slowest such item.
    per_item = [statistics.median(ts) for ts in zip(*(r["item_cpu_s"] for r in reps))]
    item_cpu = [t for r in reps for t in r["item_cpu_s"]]
    attempted = sum(r["items"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    failed = len(failures)
    e2e = {
        "setup_s": statistics.median(setups),
        "compile_cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "item_cpu_s.p50": statistics.median(item_cpu),
        "item_cpu_s.max": max(per_item),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "t_count": first["t_count"],
        "clifford_count": first["clifford_count"],
        "synthesis_error_sum": first["synthesis_error_sum"],
        "threshold_met_share": (
            first["words_met"] / first["words"] if first["words"] else 0.0
        ),
        "ok_share": 1.0 - failed / attempted,
        "esp_mean": first["esp_mean"],
    }
    meta = {
        "tables": tables,
        "setup_cpu_s": setups,
        "setup_wall_s": setup_walls + [r["setup_wall_s"] for r in reps],
        "pass_cpu_s": [r["cpu_s"] for r in reps],
        "pass_wall_s": [r["wall_s"] for r in reps],
        "item_cpu_s": item_cpu,
        "item_wall_s": [t for r in reps for t in r["item_wall_s"]],
        "words": first["words"],
        "threshold_misses": first["words"] - first["words_met"],
        "failed_share": failed / attempted,
        "blas_threads": first["blas_threads"],
    }
    if trace:
        layers = dict(first["layers"])
        layers["trace.overhead_share"] = (
            (first["cpu_s"] - plain["cpu_s"]) / plain["cpu_s"]
        )
        meta["untraced_pass_cpu_s"] = plain["cpu_s"]
        values, units = layers, declared_units("per_layer")
    else:
        values, units = e2e, declared_units("end_to_end")
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    metrics = {k: (values[k], units[k]) for k in units}
    errors = [e for r in reps for e in r["errors"]]
    return metrics, attempted, failures + errors, failed, meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {ROOT}/src\n")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_CACHE_DIR"] = os.path.join(ROOT, ".perfbench-cache", "tables")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(
        f"# host: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} "
        f"numpy={importlib.metadata.version('numpy')} commit={git_commit()} "
        f"src={source_fingerprint()}"
    )
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            metrics, attempted, failures, failed, meta = run_workload(
                name, args.seed, args.seconds, args.trace, env, deadline
            )
        except BenchError as exc:
            sys.stderr.write(f"perfbench: {name}: {exc}\n")
            return 3
        print(f"# {name}: {json.dumps(meta)}")
        for failure in failures:
            print(f"# {name}: FAILED {failure}")
        for key, (value, unit) in metrics.items():
            print(f"{name} {key} {value!r} {unit}")
        prefix = "" if len(names) == 1 else f"{name}/"
        result["metrics"].update(
            {f"{prefix}{k}": {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        )
        result["attempted"] += attempted
        result["failed"] += failed
        result["correct"] = result["correct"] and not failures
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
