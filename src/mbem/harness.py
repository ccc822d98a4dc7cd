"""Fixed-budget experiment runner.

Given a total annotation budget N, each redundancy level r trains on
floor(N / r) examples carrying r labels each. The sweep runs one unit
per (r, seed), which builds that pair's data once and trains every
method on it; em and weighted-em share one classic EM run, which the
unit's AnnotationSet caches. The test set and worker pool are also
shared across the redundancy levels of a seed. The data draws from
substreams keyed by (r, seed), and training from substreams keyed by
(method, r, seed), so results do not depend on execution order or the
number of worker processes. A failed cell is recorded without aborting
the rest, and a row of timing.csv covers that method's training and
evaluation only (and classic EM for the first of em and weighted-em).

Instead of synthesizing data, a sweep can run against pre-collected
annotation/feature/truth files; each unit then reads the five files
once, checks that their shapes agree, and subsamples floor(N / r)
examples and r of their annotations.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as mbio
from .core import AnnotationSet
from .learn import LearnerConfig, zero_one_risk
from .methods import METHODS, MbemConfig, config_from, train_method
from .seeding import RngSeed
from .simulate import WorkerSkillModel, assign_workers, corrupt_labels, \
    make_synthetic_dataset, sample_worker_pool, subsample_redundancy

__all__ = [
    "SweepSpec",
    "CellRecord",
    "CellAggregate",
    "SweepResult",
    "run_sweep",
    "aggregate",
    "emit_report",
    "read_sweep_csv",
    "spec_from_dict",
]

SWEEP_COLUMNS = ["method", "r", "n_train", "seed", "test_risk", "train_risk", "error"]


@dataclass(frozen=True)
class SweepSpec:
    budget: int
    redundancies: tuple[int, ...]
    methods: tuple[str, ...]
    skill: WorkerSkillModel
    m: int
    n_test: int
    d: int
    margin: float
    seeds: tuple[int, ...]
    mbem: MbemConfig = field(default_factory=MbemConfig)
    # optional file-backed mode: subsample r labels from recorded annotations
    annotations_file: str | None = None
    features_file: str | None = None
    truth_file: str | None = None
    test_features_file: str | None = None
    test_truth_file: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "redundancies", tuple(self.redundancies))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        for r in self.redundancies:
            if r < 1 or self.budget // r < 1:
                raise ValueError(f"budget {self.budget} cannot fund redundancy {r}")
        for name in ("methods", "redundancies", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")

    @property
    def file_mode(self) -> bool:
        return self.annotations_file is not None


@dataclass
class CellRecord:
    method: str
    r: int
    n_train: int
    seed: int
    test_risk: float
    train_risk: float
    wall_time: float
    error: str | None = None


@dataclass
class CellAggregate:
    mean: float
    stderr: float | None
    n_seeds: int


@dataclass
class SweepResult:
    records: list[CellRecord]
    aggregates: dict[tuple[str, int], CellAggregate]


def _restrict(ann: AnnotationSet, keep: np.ndarray) -> AnnotationSet:
    """AnnotationSet over the examples in keep, re-indexed to 0..len-1."""
    remap = np.full(ann.n, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    mask = remap[ann.example_ids] >= 0
    return AnnotationSet(n=keep.size, m=ann.m, K=ann.K,
                         example_ids=remap[ann.example_ids[mask]],
                         worker_ids=ann.worker_ids[mask],
                         labels=ann.labels[mask])


def _same(what: str, file_a, a: int, file_b, b: int) -> None:
    """Raise, naming both files, unless their counts a and b agree."""
    if a != b:
        raise ValueError(f"{what} disagree: {file_a} has {a}, "
                         f"{file_b} has {b}")


def _cell_data(spec: SweepSpec, r: int, seed: int):
    """(X, y, ann, conf_true|None, X_test, y_test) for one (r, seed) unit."""
    n_train = spec.budget // r
    root = RngSeed(seed)
    if spec.file_mode:
        ann_all = mbio.read_annotations(spec.annotations_file)
        X_all = mbio.read_features(spec.features_file)
        y_all = mbio.read_truth(spec.truth_file)
        X_test = mbio.read_features(spec.test_features_file)
        y_test = mbio.read_truth(spec.test_truth_file)
        _same("example counts", spec.features_file, len(X_all),
              spec.truth_file, len(y_all))
        _same("example counts", spec.features_file, len(X_all),
              spec.annotations_file, ann_all.n)
        _same("example counts", spec.test_features_file, len(X_test),
              spec.test_truth_file, len(y_test))
        _same("feature dimensions", spec.features_file, X_all.shape[1],
              spec.test_features_file, X_test.shape[1])
        if n_train > ann_all.n:
            raise ValueError(f"annotation file has only {ann_all.n} examples, "
                             f"cell needs {n_train}")
        pick_rng = root.child("subset", r).generator()
        keep = np.sort(pick_rng.choice(ann_all.n, size=n_train, replace=False))
        ann = subsample_redundancy(_restrict(ann_all, keep), r,
                                   root.child("labels", r))
        return X_all[keep], y_all[keep], ann, None, X_test, y_test

    K = spec.skill.K
    X, y = make_synthetic_dataset(n_train, K, spec.d, spec.margin,
                                  root.child("train-data", r))
    X_test, y_test = make_synthetic_dataset(spec.n_test, K, spec.d, spec.margin,
                                            root.child("test-data"))
    conf_true = sample_worker_pool(spec.skill, spec.m, root.child("workers"))
    assignment = assign_workers(n_train, r, spec.m, root.child("assign", r))
    ann = corrupt_labels(y, assignment, conf_true, root.child("corrupt", r))
    return X, y, ann, conf_true, X_test, y_test


def _failed(spec, method, r, seed, exc, wall_time) -> CellRecord:
    return CellRecord(method=method, r=r, n_train=spec.budget // r, seed=seed,
                      test_risk=float("nan"), train_risk=float("nan"),
                      wall_time=wall_time,
                      error=f"{type(exc).__name__}: {exc}")


def _run_cell(spec: SweepSpec, method: str, r: int, seed: int,
              data) -> CellRecord:
    """Train and evaluate one method on its unit's data. Bad data and a
    diverging learner (ValueError, RuntimeError) give an error record."""
    X, y, ann, conf_true, X_test, y_test = data
    start = time.perf_counter()
    try:
        cell_seed = RngSeed(seed).child("method", method, r)
        model = train_method(method, X, ann, spec.mbem, cell_seed, truth=y,
                             oracle_confusions=conf_true).model
        return CellRecord(method=method, r=r, n_train=spec.budget // r, seed=seed,
                          test_risk=zero_one_risk(model, X_test, y_test),
                          train_risk=zero_one_risk(model, X, y),
                          wall_time=time.perf_counter() - start)
    except (ValueError, RuntimeError) as exc:
        return _failed(spec, method, r, seed, exc, time.perf_counter() - start)


def _run_unit(spec: SweepSpec, r: int, seed: int) -> list[CellRecord]:
    """One record per method of spec, in spec order, all on one dataset."""
    try:
        data = _cell_data(spec, r, seed)
    except (ValueError, RuntimeError) as exc:
        return [_failed(spec, method, r, seed, exc, 0.0)
                for method in spec.methods]
    return [_run_cell(spec, method, r, seed, data)
            for method in spec.methods]


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run every (method, r, seed) cell and aggregate over seeds.

    Each (r, seed) unit runs in a worker process when jobs > 1; the
    record order (method, then r, then seed, and therefore the emitted
    files) is fixed by the spec, not by completion order.
    """
    rs = [r for r in spec.redundancies for _ in spec.seeds]
    seeds = [seed for _ in spec.redundancies for seed in spec.seeds]
    if jobs <= 1:
        units = [_run_unit(spec, r, seed) for r, seed in zip(rs, seeds)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            units = list(pool.map(_run_unit, [spec] * len(rs), rs, seeds))
    records = [unit[i] for i in range(len(spec.methods)) for unit in units]
    return SweepResult(records=records, aggregates=aggregate(records))


def aggregate(records) -> dict[tuple[str, int], CellAggregate]:
    """Per (method, r): mean test risk and standard error over seeds.

    Standard error is the sample standard deviation divided by
    sqrt(#seeds), None for single-seed cells. Failed cells are excluded,
    and a (method, r) with no successful record has no aggregate (the
    failures stay visible in the records).
    """
    groups: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        if rec.error is None:
            groups.setdefault((rec.method, rec.r), []).append(rec.test_risk)
    out = {}
    for key, values in groups.items():
        arr = np.asarray(values)
        stderr = (float(arr.std(ddof=1) / np.sqrt(arr.size))
                  if arr.size > 1 else None)
        out[key] = CellAggregate(mean=float(arr.mean()), stderr=stderr,
                                 n_seeds=arr.size)
    return out


def emit_report(result: SweepResult, out_dir) -> None:
    """Write sweep.csv, aggregate.csv, plotdata_<method>.csv, timing.csv.

    sweep.csv carries only deterministic fields (floats in shortest
    round-trip form) so reruns are byte-identical; wall-clock times go
    to timing.csv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS,
               ([rec.method, rec.r, rec.n_train, rec.seed, repr(rec.test_risk),
                 repr(rec.train_risk), rec.error or ""]
                for rec in result.records))
    _write_csv(out / "timing.csv", ["method", "r", "seed", "wall_time_seconds"],
               ([rec.method, rec.r, rec.seed, f"{rec.wall_time:.6f}"]
                for rec in result.records))

    aggs = sorted(result.aggregates.items())
    _write_csv(out / "aggregate.csv", ["method", "r", "mean", "stderr", "n_seeds"],
               ([method, r, repr(agg.mean),
                 "" if agg.stderr is None else repr(agg.stderr), agg.n_seeds]
                for (method, r), agg in aggs))
    for method in sorted({method for (method, _), _ in aggs}):
        _write_csv(out / f"plotdata_{method}.csv", ["r", "mean", "stderr"],
                   ([r, f"{agg.mean:.6g}",
                     "" if agg.stderr is None else f"{agg.stderr:.6g}"]
                    for (meth, r), agg in aggs if meth == method))


def _write_csv(path, header, rows) -> None:
    """The report files end lines in LF (io's data files keep csv's CRLF)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_sweep_csv(path) -> list[CellRecord]:
    """Parse sweep.csv back into records (wall times are not stored there)."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header != SWEEP_COLUMNS:
            raise ValueError(f"{path}: header {header} is not {SWEEP_COLUMNS}")
        return [CellRecord(method, int(r), int(n_train), int(seed),
                           float(test_risk), float(train_risk), 0.0,
                           error or None)
                for method, r, n_train, seed, test_risk, train_risk, error
                in rows]


def spec_from_dict(cfg: dict) -> SweepSpec:
    """Build a SweepSpec from a parsed config mapping.

    Required keys: budget, redundancies, methods (from methods.METHODS),
    seeds. Optional keys: classes (2), m (100), n_test (4000),
    feature_dim (2 * classes), margin (6.0), worker_model {kind
    ("hammer_spammer"), gamma (0.2)}; rounds, prior and smoothing for
    MbemConfig and learner {kind, l2_penalty, learning_rate, epochs,
    batch_size, hidden_units, init_scale} for LearnerConfig, coerced to
    the fields' types and defaulting to the dataclass defaults; and for
    file mode annotations_file, features_file, truth_file,
    test_features_file and test_truth_file.
    """
    skill_cfg = cfg.get("worker_model", {})
    skill = WorkerSkillModel(kind=skill_cfg.get("kind", "hammer_spammer"),
                             gamma=float(skill_cfg.get("gamma", 0.2)),
                             K=int(cfg.get("classes", 2)))
    learner = dict(cfg.get("learner", {}))
    if "kind" in learner:
        learner["learner_kind"] = learner.pop("kind")
    mbem = {key: cfg[key] for key in ("rounds", "prior", "smoothing")
            if key in cfg}
    if "prior" in mbem:
        mbem["prior_mode"] = mbem.pop("prior")
    mbem_cfg = config_from(MbemConfig, mbem,
                           learner=config_from(LearnerConfig, learner))
    return SweepSpec(
        budget=int(cfg["budget"]),
        redundancies=tuple(int(r) for r in cfg["redundancies"]),
        methods=tuple(cfg["methods"]),
        skill=skill,
        m=int(cfg.get("m", 100)),
        n_test=int(cfg.get("n_test", 4000)),
        d=int(cfg.get("feature_dim", 2 * skill.K)),
        margin=float(cfg.get("margin", 6.0)),
        seeds=tuple(int(s) for s in cfg["seeds"]),
        mbem=mbem_cfg,
        annotations_file=cfg.get("annotations_file"),
        features_file=cfg.get("features_file"),
        truth_file=cfg.get("truth_file"),
        test_features_file=cfg.get("test_features_file"),
        test_truth_file=cfg.get("test_truth_file"),
    )
