"""Golden outputs: the bytes that two small sweeps write, pinned.

Each golden set lives under tests/golden/<name>/. synthetic runs `mbem
sweep` on tests/golden/synthetic.yaml. file runs two `mbem simulate`
commands (SIMULATE), pins the annotations and truth of the first, and
runs `mbem sweep` in file mode on tests/golden/file.yaml over them, with
the second run's features and truth as the test set. A mismatch names
every cell that differs.

After a deliberate output change, regenerate every golden file with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which cells moved, and why.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from mbem.cli import main

GOLDEN = Path(__file__).parent / "golden"
REPORTS = ("sweep.csv", "aggregate.csv")
# Columns that name a row in a difference report.
KEYS = ("method", "r", "seed", "example_id", "worker_id")
SIMULATE = {
    "data": ["--n", "600", "--classes", "4", "--margin", "2",
             "--skill", "classwise_hammer_spammer", "--gamma", "0.2",
             "--m", "20", "--r", "3", "--seed", "11"],
    "test": ["--n", "500", "--classes", "4", "--margin", "2",
             "--m", "20", "--seed", "12"],
}


def sweep(config: Path, out: Path, jobs: int) -> dict[str, bytes]:
    assert main(["sweep", "--config", str(config), "--out-dir", str(out),
                 "--jobs", str(jobs)]) == 0
    return {name: (out / name).read_bytes() for name in REPORTS}


def synthetic_outputs(work: Path, jobs: int = 1) -> dict[str, bytes]:
    return sweep(GOLDEN / "synthetic.yaml", work / "sweep", jobs)


def file_outputs(work: Path, jobs: int = 1) -> dict[str, bytes]:
    for name, args in SIMULATE.items():
        assert main(["simulate", *args, "--out-dir", str(work / name)]) == 0
    cfg = yaml.safe_load((GOLDEN / "file.yaml").read_text())
    cfg.update(annotations_file=str(work / "data" / "annotations.csv"),
               features_file=str(work / "data" / "features.csv"),
               truth_file=str(work / "data" / "truth.csv"),
               test_features_file=str(work / "test" / "features.csv"),
               test_truth_file=str(work / "test" / "truth.csv"))
    config = work / "file.json"
    config.write_text(json.dumps(cfg))
    inputs = {name: (work / "data" / name).read_bytes()
              for name in ("annotations.csv", "truth.csv")}
    return {**inputs, **sweep(config, work / "sweep", jobs)}


OUTPUTS = {"synthetic": synthetic_outputs, "file": file_outputs}


def differences(name: str, expected: bytes, got: bytes) -> list[str]:
    """One line per cell of CSV file name that differs between expected
    and got, naming its row and column; [] if the bytes agree."""
    if expected == got:
        return []
    old, new = (list(csv.reader(io.StringIO(data.decode())))
                for data in (expected, got))
    if old[:1] != new[:1]:
        return [f"{name}: header {old[:1]} -> {new[:1]}"]
    header = old[0]
    out = []
    for line, (a, b) in enumerate(zip(old[1:], new[1:]), start=2):
        row = " ".join(f"{h}={v}" for h, v in zip(header, a) if h in KEYS)
        out += [f"{name} line {line} ({row}) {h}: {x!r} -> {y!r}"
                for h, x, y in zip(header, a, b) if x != y]
        if len(a) != len(b):
            out.append(f"{name} line {line} ({row}): {a} -> {b}")
    if len(old) != len(new):
        out.append(f"{name}: {len(old) - 1} rows -> {len(new) - 1}")
    return out or [f"{name}: same cells, different bytes"]


@pytest.mark.parametrize("name,jobs", [("synthetic", 1), ("synthetic", 2),
                                       ("file", 1), ("file", 2)])
def test_outputs_match_golden(name, jobs, tmp_path):
    got = OUTPUTS[name](tmp_path, jobs)
    diffs = [line for fname, data in got.items() for line in
             differences(f"{name}/{fname}",
                         (GOLDEN / name / fname).read_bytes(), data)]
    assert not diffs, "\n".join(diffs)


def regenerate() -> None:
    for name, outputs in OUTPUTS.items():
        with tempfile.TemporaryDirectory() as work:
            files = outputs(Path(work))
        (GOLDEN / name).mkdir(exist_ok=True)
        for fname, data in files.items():
            (GOLDEN / name / fname).write_bytes(data)
            print(f"wrote {GOLDEN / name / fname}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
