"""One benchmark process: set a workload up, or set it up and sweep it.

    python3 perfbench/measure.py setup --workload W --seed N --work-dir D
    python3 perfbench/measure.py run --workload W --seed N --work-dir D \
        --seconds S --trace 0|1 --spans-out FILE

``setup`` imports mbem, builds the sweep spec and writes the workload's
input files, then prints the system-wide monotonic clock and exits;
run.py takes the time from spawning the process to that reading. ``run``
builds the spec over the inputs ``setup`` wrote and repeats the sweep
(``harness.run_sweep`` then ``harness.emit_report``, as ``mbem sweep``
does) until S seconds have passed. It prints one JSON object: the
end-to-end figures untraced, or with ``--trace 1`` the per-layer figures
of traced sweeps at jobs=1, plus every failed output check.

The package is imported from the ``src`` directory of the checkout this
file sits in, never from anywhere else on the path.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mbem  # noqa: E402
import numpy as np  # noqa: E402
from mbem import harness  # noqa: E402

import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

if Path(mbem.__file__).resolve().parent != ROOT / "src" / "mbem":
    raise SystemExit(f"mbem imported from {mbem.__file__}, not from {ROOT}/src")


def build_spec(name, seed, work_dir, tiny=False):
    return harness.spec_from_dict(workloads.sweep_config(
        name, seed, Path(work_dir) / "inputs", tiny=tiny))


def setup(name, seed, work_dir, tiny=False):
    """Everything a fresh process does before its first cell."""
    build_spec(name, seed, work_dir, tiny)
    workloads.write_inputs(name, seed, Path(work_dir) / "inputs", tiny=tiny)


def sweep(spec, jobs, out_dir):
    """One timed sweep: (result, wall seconds, sweep.csv bytes).

    The harness functions are looked up on the module at call time, so
    a traced sweep reaches emit_report through its wrapper.
    """
    start = time.perf_counter()
    result = harness.run_sweep(spec, jobs=jobs)
    harness.emit_report(result, out_dir)
    wall = time.perf_counter() - start
    return result, wall, (Path(out_dir) / "sweep.csv").read_bytes()


def traced_sweep(spec, out_dir):
    """A jobs=1 sweep with every public layer function wrapped."""
    tracer = spanlib.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with tracer.installed():
            result, wall, csv_bytes = sweep(spec, 1, out_dir)
    n_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    layer = spanlib.layer_metrics(tracer.spans, wall, len(result.records),
                                  n_warnings)
    return result, wall, csv_bytes, layer, tracer.spans


def check_result(result, spec, csv_bytes, reference, label):
    """Failed output checks of one sweep, as messages."""
    problems = []
    expected = len(spec.methods) * len(spec.redundancies) * len(spec.seeds)
    if len(result.records) != expected:
        problems.append(f"{label}: {len(result.records)} cells, "
                        f"expected {expected}")
    for rec in result.records:
        cell = f"{label}: cell ({rec.method}, r={rec.r}, seed={rec.seed})"
        if rec.error is not None:
            problems.append(f"{cell} failed: {rec.error}")
            continue
        for field in ("test_risk", "train_risk"):
            value = getattr(rec, field)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{cell}: {field}={value!r} outside [0, 1]")
    if reference is not None and csv_bytes != reference:
        problems.append(f"{label}: sweep.csv differs from the first sweep's")
    return problems


def peak_rss_mb():
    """Peak RSS of this process plus its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def numpy_env():
    """numpy's version and the BLAS it was built against."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def quality(records):
    """Mean test risk, and MV's minus MBEM's r=1 risk where both ran."""
    out = {"test_risk_mean": statistics.fmean(r.test_risk for r in records)}
    r1 = {method: [rec.test_risk for rec in records
                   if rec.r == 1 and rec.method == method]
          for method in ("mv", "mbem")}
    if all(r1.values()):
        out["mbem_gain_r1"] = (statistics.fmean(r1["mv"])
                               - statistics.fmean(r1["mbem"]))
    return out


def measure(name, seed, work_dir, seconds, trace, spans_out=None,
            tiny=False):
    """Sweep the workload for `seconds`; the figures and failed checks."""
    spec = build_spec(name, seed, work_dir, tiny)
    jobs = workloads.jobs(name)
    out_dir = Path(work_dir) / "out"
    problems = []
    attempted = failed = 0
    reference = None
    first = None
    walls, traced_walls, layers, all_spans = [], [], [], []

    def account(result, wall, csv_bytes, label):
        nonlocal attempted, failed, reference, first
        problems.extend(check_result(result, spec, csv_bytes, reference,
                                     label))
        attempted += len(result.records)
        failed += sum(rec.error is not None for rec in result.records)
        if reference is None:
            reference, first = csv_bytes, result

    start = time.perf_counter()
    if not trace:
        while len(walls) < 2 or time.perf_counter() - start < seconds:
            result, wall, csv_bytes = sweep(spec, jobs, out_dir)
            account(result, wall, csv_bytes, f"sweep {len(walls)}")
            walls.append(wall)
    else:
        # The reference runs at the workload's own jobs, so the traced
        # jobs=1 sweeps also check that results do not depend on jobs.
        account(*sweep(spec, jobs, out_dir), f"jobs={jobs} sweep")
        while not layers or time.perf_counter() - start < seconds:
            result, wall, csv_bytes = sweep(spec, 1, out_dir)
            account(result, wall, csv_bytes, "untraced jobs=1 sweep")
            walls.append(wall)
            result, wall, csv_bytes, layer, spans = traced_sweep(spec, out_dir)
            account(result, wall, csv_bytes, f"traced sweep {len(layers)}")
            traced_walls.append(wall)
            layers.append(layer)
            all_spans.append(spans)

    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "cells": len(first.records), "sweeps": len(walls),
           "sweep_s": walls, "peak_rss_mb": peak_rss_mb(),
           "env": numpy_env()}
    out.update(quality(first.records))
    # The fastest sweep: on a shared machine other load only ever adds
    # time, and it comes in phases longer than a sweep, which move the
    # median of a run's sweeps far more than its minimum.
    out["cells_per_s"] = out["cells"] / min(walls)
    out["cells_failed_frac"] = failed / attempted
    if trace:
        keys = set().union(*layers)
        out["layer"] = {key: statistics.median(layer.get(key, 0)
                                               for layer in layers)
                        for key in sorted(keys)}
        out["layer"]["trace.overhead_frac"] = (
            min(traced_walls) / min(walls) - 1.0)
        if spans_out is not None:
            write_spans(spans_out, all_spans)
    return out


def write_spans(path, sweeps):
    """All traced spans as JSON lines, one per span, tagged by sweep."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for index, spans in enumerate(sweeps):
            for span_id, span in enumerate(spans):
                fh.write(json.dumps({"sweep": index, "id": span_id,
                                     **span.as_dict()}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.seed, args.work_dir)
        print(time.monotonic())
        return 0
    out = measure(args.workload, args.seed, args.work_dir, args.seconds,
                  args.trace, args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
