"""Self-tests of the benchmark: span arithmetic, metric names, tiny runs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

from mbem import core  # noqa: E402
from mbem.core import AnnotationSet  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def nested_spans():
    """classic_em [0, 10] over two posterior calls and one estimate call;
    the first posterior has a child of its own; emit_report is a second
    top-level span."""
    return [
        Span("core.classic_em", 0.0, 10.0, None, ("em", 1, 0)),
        Span("core.posterior", 1.0, 3.0, 0, ("em", 1, 0), count=100),
        Span("core.check_confusions", 1.5, 2.0, 1, ("em", 1, 0)),
        Span("core.estimate_confusions_and_prior", 3.0, 4.0, 0,
             ("em", 1, 0), count=100),
        Span("core.posterior", 4.0, 7.0, 0, ("em", 1, 0), count=100),
        Span("harness.emit_report", 11.0, 11.5, None, None),
    ]


def test_self_time_subtracts_direct_children_only():
    selfs = spanlib.self_times(nested_spans())
    assert selfs == pytest.approx([10 - 2 - 1 - 3, 2 - 0.5, 0.5, 1, 3, 0.5])


def test_layer_metrics_on_nested_spans():
    out = spanlib.layer_metrics(nested_spans(), wall_s=12.0, cells=1,
                                warnings=3)
    assert out["core.classic_em.self_s"] == pytest.approx(4.0)
    assert out["core.classic_em.total_s"] == pytest.approx(10.0)
    assert out["core.posterior.calls"] == 2
    assert out["core.posterior.self_s"] == pytest.approx(1.5 + 3.0)
    assert out["core.posterior.records"] == 200
    assert out["core.posterior.ns_per_record"] == pytest.approx(4.5 / 200 * 1e9)
    assert out["core.classic_em.iters"] == 2
    # The whole core layer is everything but the emit_report span.
    assert out["core.self_s"] == pytest.approx(10.0)
    # 12 s of wall time, 10.5 s of it under top-level spans.
    assert out["harness.self_s"] == pytest.approx(1.5)
    assert out["harness.emit_report.self_s"] == pytest.approx(0.5)
    assert out["core.warnings"] == 3


def test_covered_merges_overlapping_intervals():
    assert spanlib._covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_tracer_wraps_calls_made_inside_the_package_and_restores():
    original = core.posterior
    ann = AnnotationSet.from_tables([[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                                    [[0, 0, 1], [1, 1, 1], [0, 1, 0]],
                                    m=3, K=2)
    tracer = spanlib.Tracer()
    with tracer.installed():
        assert core.posterior is not original
        core.classic_em(ann)
    assert core.posterior is original
    names = [span.name for span in tracer.spans]
    assert names[0] == "core.classic_em"
    posteriors = [s for s in tracer.spans if s.name == "core.posterior"]
    assert posteriors and all(s.parent == 0 for s in posteriors)
    assert all(s.count == len(ann) for s in posteriors)
    assert all(s.end >= s.start for s in tracer.spans)


def test_traced_sweep_tags_spans_with_their_cell(tmp_path):
    spec = measure.build_spec("paper-k4", 3, tmp_path, tiny=True)
    _, _, _, layer, spans = measure.traced_sweep(spec, tmp_path / "out")
    fits = [s for s in spans if s.name == "learn.fit"]
    assert len(fits) == layer["learn.fit.calls"] > 0
    assert {s.cell[0] for s in fits} == set(spec.methods)
    assert all(s.cell[1] in spec.redundancies and s.cell[2] == 3
               for s in fits)
    assert [s.cell for s in spans if s.name == "harness.emit_report"] == [None]


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    for metric in BENCHMARK["end_to_end"]:
        assert metric["better"] == run.DIRECTION.get(metric["name"], "lower")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Untraced and traced tiny runs of every workload."""
    out = {}
    for name in workloads.NAMES:
        work = tmp_path_factory.mktemp(name)
        measure.setup(name, 3, work, tiny=True)
        for trace in (0, 1):
            out[name, trace] = measure.measure(name, 3, work, seconds=0,
                                               trace=trace, tiny=True)
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_runs_tiny_and_passes_its_checks(tiny_runs, name,
                                                       trace):
    result = tiny_runs[name, trace]
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * result["cells"] > 0
    assert 0.0 <= result["test_risk_mean"] <= 1.0
    assert ("mbem_gain_r1" in result) == (name != "label-heavy")
    for metric in run.END_TO_END:
        if metric != "setup_s":
            assert result[metric] > 0
    if trace:
        assert result["layer"]["harness.cells"] == result["cells"]


def test_traced_runs_produce_every_per_layer_metric(tiny_runs):
    produced = set()
    for (_, trace), result in tiny_runs.items():
        if trace:
            produced |= set(result["layer"])
    assert set(run.PER_LAYER) <= produced


def test_check_flags_a_sweep_csv_that_differs(tmp_path):
    spec = measure.build_spec("paper-k4", 3, tmp_path, tiny=True)
    result, _, csv_bytes = measure.sweep(spec, 1, tmp_path / "out")
    assert measure.check_result(result, spec, csv_bytes, csv_bytes, "a") == []
    problems = measure.check_result(result, spec, csv_bytes, b"other", "b")
    assert problems == ["b: sweep.csv differs from the first sweep's"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.write_inputs("file-mlp", seed, tmp_path / sub, tiny=True)
    files = workloads.INPUT_FILES.values()
    same = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
            for f in files]
    differ = [(tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
              for f in files]
    assert all(same) and any(differ)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "paper-k4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
