"""Sweep benchmark: cells/s, set-up time, memory and accuracy per workload.

    python3 perfbench/run.py --workload paper-k4 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Inputs derive from --seed alone.
--trace 0 times untraced sweeps for --seconds and prints the end-to-end
metrics; --trace 1 alternates untraced and traced jobs=1 sweeps and
prints the per-layer metrics. Either way the outputs are checked (every
cell succeeds, risks lie in [0, 1], every sweep writes the same
sweep.csv bytes), a human-readable report and the environment go to
stdout, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed check prints
its reasons to stderr and exits 1; a checkout without src/mbem exits 2.

The result, with its environment, is also written under
.perfbench_out/ together with the traced spans. Set-up and sweeps run
in child processes (see measure.py), so peak RSS counts only the
sweeping process and its pool workers. See README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

import workloads  # noqa: E402  (this directory is first on sys.path)

# Fresh set-up processes per run; setup_s is their median.
SETUP_REPEATS = 9
# Every run ends well inside the three minutes a run may take.
DEADLINE_S = 170.0

# One BLAS thread per process: file-mlp's two pool workers then stay
# within two cores, and two threads measured no faster on the jobs=1
# workloads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

# name -> unit; the order is the printing order.
END_TO_END = {
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_risk_mean": "fraction",
}
# Printed in the report but kept out of the JSON metrics: the failed
# share is 0 on every workload (the JSON's "failed" carries it), and the
# gain exists only where mv and mbem both run and changes sign by seed.
REPORT_ONLY = {
    "cells_failed_frac": "fraction",
    "mbem_gain_r1": "fraction",
}
DIRECTION = {"cells_per_s": "higher", "mbem_gain_r1": "higher"}


def _calls_self(*names):
    return {f"{n}.{stat}": unit for n in names
            for stat, unit in (("calls", "count"), ("self_s", "s"))}


PER_LAYER = {
    **_calls_self("learn.fit", "learn.predict_proba", "learn.zero_one_risk"),
    "learn.fit.example_steps": "count",
    "learn.fit.ns_per_example_step": "ns",
    **_calls_self("core.posterior", "core.estimate_confusions_and_prior",
                  "core.classic_em", "core.majority_vote_init"),
    "core.posterior.records": "count",
    "core.posterior.ns_per_record": "ns",
    "core.estimate_confusions_and_prior.ns_per_record": "ns",
    "core.classic_em.iters": "count",
    "core.warnings": "count",
    **{f"methods.{fn}.{stat}": unit
       for fn in ("run_mbem", "run_weighted_baseline", "run_hard_baseline")
       for stat, unit in (("calls", "count"), ("total_s", "s"),
                          ("self_s", "s"))},
    **_calls_self(*(f"simulate.{fn}" for fn in (
        "make_synthetic_dataset", "corrupt_labels", "assign_workers",
        "sample_worker_pool", "subsample_redundancy"))),
    **{f"io.{fn}.{stat}": unit
       for fn in ("read_annotations", "read_features", "read_truth")
       for stat, unit in (("calls", "count"), ("self_s", "s"),
                          ("bytes", "B"))},
    "harness.emit_report.self_s": "s",
    "harness.self_s": "s",
    "harness.cells": "count",
    **{f"{layer}.self_s": "s"
       for layer in ("learn", "core", "methods", "simulate", "io")},
    "trace.overhead_frac": "fraction",
}


def child_env():
    env = dict(os.environ, **BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark ran past its deadline")
    return left


def measure_setup(args, work_dir, deadline):
    """Median time from spawning a fresh process to its set-up being done.

    The child reads the monotonic clock (shared by all processes) when
    it is ready, so interpreter teardown and the wait for its exit are
    not counted.
    """
    cmd = [sys.executable, str(HERE / "measure.py"), "setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", str(work_dir)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(cmd, env=child_env(), check=True,
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining(deadline))
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times), times


def measure_sweeps(args, work_dir, deadline):
    cmd = [sys.executable, str(HERE / "measure.py"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", str(work_dir), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--spans-out", str(OUT_DIR / f"spans-{args.workload}"
                                        f"-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, env=child_env(), check=True,
                          stdout=subprocess.PIPE, text=True,
                          timeout=remaining(deadline))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(child):
    """What the numbers depend on besides the code."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:  # read-only system information
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), **child["env"],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_commit": commit, "blas_threads_env": BLAS_THREADS}


def report(args, metrics, units):
    """Human-readable lines, one per metric."""
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, unit in units.items():
        if name in metrics:
            better = DIRECTION.get(name, "lower") if not args.trace else ""
            print(f"{name:52s} {metrics[name]:>14.6g} {unit:8s} {better}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mbem" / "__init__.py").is_file():
        print(f"no src/mbem package under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-", dir=WORK_DIR))
    try:
        setup_s, setup_runs = measure_setup(args, work_dir, deadline)
        child = measure_sweeps(args, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    child["setup_s"] = setup_s
    child["setup_runs_s"] = setup_runs
    if args.trace:
        units = PER_LAYER
        metrics = {name: child["layer"].get(name, 0) for name in PER_LAYER}
        report(args, metrics, PER_LAYER)
    else:
        units = END_TO_END
        metrics = {name: child[name] for name in END_TO_END}
        report(args, child, {**END_TO_END, **REPORT_ONLY})
    env = environment(child)
    print("# environment " + json.dumps(env))

    correct = not child["problems"] and child["failed"] == 0
    result = {"correct": correct, "attempted": child["attempted"],
              "failed": child["failed"],
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "result": result, "raw": child,
                   "environment": env}, fh, indent=1)
    for problem in child["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
