"""Fixed-budget experiment runner, and the reader of its config files.

Given a total annotation budget N, each redundancy level r trains on
floor(N / r) examples carrying r labels each. The sweep runs one unit
per (r, seed), which builds that pair's data once and trains every
method on it; em and weighted-em share one classic EM run, which the
unit's AnnotationSet caches. The training data draws from substreams
keyed by (r, seed). The test set and worker pool draw from substreams
keyed by the seed alone, so every redundancy level of a seed sees the
same ones, but each unit draws them again rather than sharing them.
Every fit of a unit, whatever its method or MBEM round, draws from the
one substream ("fit", r) of seed. Two methods that train on the same
features and targets therefore get the same model, and the unit keeps
one list of its fits, which methods._fit reads: a repeated fit returns
the earlier model. Results do not depend on execution order, on which
methods the spec lists or on the number of worker processes. A
ValueError (bad data) or RuntimeError (a diverging learner) fails its
cells and the sweep goes on; any other exception aborts it. A row of
timing.csv covers that method's training and evaluation only (and
classic EM for the first of em and weighted-em). A fit the unit already
made costs its later method nothing: after weighted-mv, the mbem row
excludes round 0.

Instead of synthesizing data, a sweep can run against pre-collected
annotation/feature/truth files, which read_inputs reads and checks for
the sweep and `mbem train` alike. A file-mode spec holds the five paths
as one input_files tuple, in FILE_KEYS order. Each process of a sweep
reads them on the first unit it runs, checks that they agree, and keeps
them for its later units in one cache, keyed by the five paths and
cleared when run_sweep returns: run_sweep's own process at jobs=1, and
each pool worker at jobs > 1, so the parent then reads nothing and a
worker that gets no unit reads nothing. Each unit subsamples floor(N / r)
of those examples and r of their annotations. A read or check that fails
does so in its unit by the rule above: a ValueError or RuntimeError fails
the unit's cells, and the next unit reads the files again; any other
error, such as a missing file, aborts the sweep.
"""

from __future__ import annotations

import csv
import functools
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io as mbio
from .core import AnnotationSet
from .learn import LearnerConfig, zero_one_risk
from .methods import METHODS, MbemConfig, train_method
from .seeding import RngSeed
from .simulate import MARGIN, WorkerSkillModel, assign_workers, corrupt_labels, \
    make_synthetic_dataset, sample_worker_pool, subsample_redundancy

__all__ = [
    "SweepSpec",
    "CellRecord",
    "CellAggregate",
    "SweepResult",
    "run_sweep",
    "aggregate",
    "emit_report",
    "spec_from_dict",
    "read_inputs",
]

SWEEP_COLUMNS = ["method", "r", "n_train", "seed", "test_risk", "train_risk", "error"]
# The config keys of file mode, in SweepSpec.input_files order.
FILE_KEYS = ("annotations_file", "features_file", "truth_file",
             "test_features_file", "test_truth_file")
# The top-level keys of a sweep config: the required ones, then the rest.
REQUIRED_KEYS = ("budget", "redundancies", "methods", "seeds")
CONFIG_KEYS = REQUIRED_KEYS + (
    "classes", "m", "n_test", "feature_dim", "margin", "worker_model",
    "rounds", "prior", "smoothing", "learner") + FILE_KEYS


@dataclass(frozen=True)
class SweepSpec:
    budget: int
    redundancies: tuple[int, ...]
    methods: tuple[str, ...]
    skill: WorkerSkillModel
    m: int
    n_test: int
    d: int | None          # None: make_synthetic_dataset's default
    margin: float
    seeds: tuple[int, ...]
    mbem: MbemConfig = field(default_factory=MbemConfig)
    # the five file-mode paths in FILE_KEYS order; None: synthetic data
    input_files: tuple[str, ...] | None = None

    def __post_init__(self):
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        for r in self.redundancies:
            if r < 1 or self.budget // r < 1:
                raise ValueError(f"budget {self.budget} cannot fund redundancy {r}")
        for name in ("methods", "redundancies", "seeds"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"{name} repeats {repeats[0]!r}")
        # Each bound is a negated test, so that NaN fails it.
        if not np.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {self.margin}")
        for key, value in (("m", self.m), ("n_test", self.n_test)):
            if not value >= 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        if self.d is not None and not self.d >= self.skill.K:
            raise ValueError(f"feature_dim must be at least classes "
                             f"({self.skill.K}), got {self.d}")
        if (self.input_files is not None
                and len(self.input_files) != len(FILE_KEYS)):
            raise ValueError(f"input_files must hold {len(FILE_KEYS)} paths, "
                             f"got {len(self.input_files)}")


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


def _in_classes(truth_file, y, annotations_file, K: int) -> None:
    """Raise, naming both files, unless every true label is below K."""
    if y.max() >= K:
        raise ValueError(f"{truth_file} has label {y.max()}, but "
                         f"{annotations_file} has only {K} classes")


def read_inputs(annotations, features, truth=None):
    """(ann, X, y or None) from the annotation, feature and truth files;
    ValueError, naming them, if their example counts or classes disagree."""
    ann = mbio.read_annotations(annotations)
    X = mbio.read_features(features)
    y = None if truth is None else mbio.read_truth(truth)
    if y is not None:
        _same("example counts", features, len(X), truth, len(y))
        _in_classes(truth, y, annotations, ann.K)
    _same("example counts", features, len(X), annotations, ann.n)
    return ann, X, y


# Keyed by the five paths, not by the spec, which list fields would make
# unhashable. run_sweep clears it on return; a pool worker's copy ends with
# the worker.
@functools.cache
def _file_inputs(annotations, features, truth, test_features, test_truth):
    """(ann, X, y, X_test, y_test) from a spec's input_files, read and
    checked."""
    ann, X, y = read_inputs(annotations, features, truth)
    X_test = mbio.read_features(test_features)
    y_test = mbio.read_truth(test_truth)
    _same("example counts", test_features, len(X_test), test_truth,
          len(y_test))
    _same("feature dimensions", features, X.shape[1], test_features,
          X_test.shape[1])
    _in_classes(test_truth, y_test, annotations, ann.K)
    return ann, X, y, X_test, y_test


def _cell_data(spec: SweepSpec, r: int, seed: int):
    """(X, y, ann, conf_true|None, X_test, y_test) for one (r, seed) unit."""
    n_train = spec.budget // r
    root = RngSeed(seed)
    if spec.input_files is not None:
        ann_all, X_all, y_all, X_test, y_test = _file_inputs(
            *spec.input_files)
        if n_train > ann_all.n:
            raise ValueError(f"annotation file has only {ann_all.n} examples, "
                             f"cell needs {n_train}")
        pick_rng = root.child("subset", r).generator()
        keep = np.sort(pick_rng.choice(ann_all.n, size=n_train, replace=False))
        kept = _restrict(ann_all, keep)
        short = keep[kept.redundancy_counts() < r]
        if short.size:
            raise ValueError(f"{spec.input_files[0]}: example {short[0]} has "
                             f"fewer than {r} annotations")
        ann = subsample_redundancy(kept, r, root.child("labels", r))
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
              data, fits: list | None) -> CellRecord:
    """Train and evaluate one method on its unit's data, sharing the
    unit's fits (None: none). Bad data and a diverging learner
    (ValueError, RuntimeError) give an error record."""
    X, y, ann, conf_true, X_test, y_test = data
    start = time.perf_counter()
    try:
        model = train_method(method, X, ann, spec.mbem,
                             RngSeed(seed).child("fit", r), truth=y,
                             oracle_confusions=conf_true, fits=fits).model
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
    fits = []
    return [_run_cell(spec, method, r, seed, data, fits)
            for method in spec.methods]


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run every (method, r, seed) cell and aggregate over seeds.

    Every (r, seed) unit runs through _run_unit: in this process at
    jobs=1, and at jobs > 1 dealt one at a time to a pool of
    min(jobs, units) worker processes. In file mode each process reads
    the input files on its first unit, and this process's cache of them
    is cleared on return (see the module docstring). The record order
    (method, then r, then seed, and therefore the emitted files) is fixed
    by the spec, not by completion order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    rs = [r for r in spec.redundancies for _ in spec.seeds]
    seeds = [seed for _ in spec.redundancies for seed in spec.seeds]
    specs = [spec] * len(rs)
    try:
        if jobs == 1:
            units = list(map(_run_unit, specs, rs, seeds))
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(rs))) as pool:
                units = list(pool.map(_run_unit, specs, rs, seeds))
    finally:
        _file_inputs.cache_clear()
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


def _coerce(kind, value, key: str):
    """value as kind (int, float or str); ValueError, naming key, if it
    cannot be read as one. An int takes only an integral value, 2 or "2"
    but not 2.5, so nothing is truncated; no kind takes a bool, which is
    how YAML reads yes and no."""
    message = f"{key}: cannot read {value!r} as {kind.__name__}"
    try:
        out = kind(value)
    except (TypeError, ValueError):
        raise ValueError(message) from None
    if isinstance(value, bool) or (kind is int and out != value
                                   and not isinstance(value, str)):
        raise ValueError(message)
    return out


def _config_from(cls, values: Mapping, block: str = "", **given):
    """A config dataclass from values, coerced to the fields' types, and
    the fields in given, which values may not set; omitted fields default.
    A value that cannot take its field's type raises a ValueError naming
    it as block + field name (block is "learner." for learner.epochs)."""
    # Each field with a plain default takes that default's type.
    types = {f.name: type(f.default) for f in fields(cls)
             if f.default is not MISSING and f.name not in given}
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ValueError(f"{cls.__name__} cannot take field(s) {unknown}")
    return cls(**{k: _coerce(types[k], v, block + k)
                  for k, v in values.items()}, **given)


def _listed(cfg: dict, key: str, kind) -> tuple:
    """cfg[key], a list, as a tuple of kind; ValueError, naming key, if it
    is not a list or an entry cannot be read as kind."""
    values = cfg[key]
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {values!r}")
    return tuple(_coerce(kind, value, key) for value in values)


def _block(cfg: dict, key: str) -> dict:
    """cfg[key], a mapping, as a dict, {} if absent; ValueError, naming
    key, if it is not a mapping."""
    block = cfg.get(key, {})
    if not isinstance(block, Mapping):
        raise ValueError(f"{key} must be a mapping, got {block!r}")
    return dict(block)


def spec_from_dict(cfg: dict) -> SweepSpec:
    """Build a SweepSpec from a parsed config mapping.

    Required keys: budget, redundancies, methods (from methods.METHODS),
    seeds; each list holds distinct values. Optional keys: classes, m
    (100), n_test (4000), feature_dim, margin, worker_model {kind,
    gamma}; rounds, prior and smoothing for MbemConfig; learner {kind,
    l2_penalty, learning_rate, epochs, batch_size, hidden_units,
    init_scale} for LearnerConfig; and for file mode annotations_file,
    features_file, truth_file, test_features_file and test_truth_file.
    A null value, such as an empty YAML block, counts as absent.
    The scenario defaults come from the simulate module: classes, kind
    and gamma from WorkerSkillModel, margin from simulate.MARGIN, and
    feature_dim is 2 * classes. Values are coerced to their fields'
    types, an integer only from an integral value. A key outside
    CONFIG_KEYS, a missing required key, an unknown worker_model or
    learner key, a block that is not a mapping and a value that cannot
    take its type each raise ValueError naming it, and so do a margin
    that is not finite, an m or n_test below 1 and a feature_dim below
    classes.
    """
    cfg = {key: value for key, value in cfg.items() if value is not None}
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown sweep config key(s) {unknown}")
    missing = [key for key in REQUIRED_KEYS if key not in cfg]
    if missing:
        raise ValueError(f"sweep config lacks {', '.join(missing)}")
    absent = [key for key in FILE_KEYS if key not in cfg]
    if 0 < len(absent) < len(FILE_KEYS):
        raise ValueError("file mode needs all five input files; missing "
                         + ", ".join(absent))

    def scalar(kind, key, default=None):
        return _coerce(kind, cfg[key], key) if key in cfg else default

    skill = _config_from(WorkerSkillModel, _block(cfg, "worker_model"),
                         "worker_model.",
                        K=scalar(int, "classes", WorkerSkillModel.K))
    learner = _block(cfg, "learner")
    if "kind" in learner:
        learner["learner_kind"] = learner.pop("kind")
    mbem = {key: cfg[key] for key in ("rounds", "prior", "smoothing")
            if key in cfg}
    if "prior" in mbem:
        mbem["prior_mode"] = mbem.pop("prior")
    mbem_cfg = _config_from(MbemConfig, mbem,
                            learner=_config_from(LearnerConfig, learner,
                                                 "learner."))
    return SweepSpec(
        budget=scalar(int, "budget"),
        redundancies=_listed(cfg, "redundancies", int),
        methods=_listed(cfg, "methods", str),
        skill=skill,
        m=scalar(int, "m", 100),
        n_test=scalar(int, "n_test", 4000),
        d=scalar(int, "feature_dim"),
        margin=scalar(float, "margin", MARGIN),
        seeds=_listed(cfg, "seeds", int),
        mbem=mbem_cfg,
        input_files=None if absent else tuple(cfg[key] for key in FILE_KEYS),
    )
