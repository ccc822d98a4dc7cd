"""Fixed-budget experiment runner, and the reader of its config files.

Given a total annotation budget N, each redundancy level r trains on
floor(N / r) examples carrying r labels each. The sweep runs one unit
per (r, seed), which builds that pair's data once and trains every
method on it; em and weighted-em share one classic EM run, which the
unit's AnnotationSet caches. A synthetic unit draws its training data
with simulate.simulate_unit, as `mbem simulate --n floor(N / r) --r r
--seed seed` does. The test set and worker pool draw from substreams
keyed by the seed alone, so every redundancy level of a seed sees the
same ones, but each unit draws them again rather than sharing them.
_cell_data builds the pair's data into one methods.Unit, whose every
fit, whatever its method or MBEM round, draws from the one substream
("fit", r) of seed. Two methods that train on the same targets
therefore get the same model, and Unit.fit returns the earlier model
instead of training it again. _cell_data also builds the learner's
class-major copy (learn.class_major) of the test features, once, and
the unit builds that of its training features, once (Unit.columns):
every fit, prediction and risk of the unit reads these two copies,
which are freed with the unit. Results do not depend on execution
order, on which methods the spec lists or on the number of worker
processes. A ValueError (bad data) or RuntimeError (a diverging
learner) fails its cells and the sweep goes on; any other exception
aborts it. A row of timing.csv covers that method's training and
evaluation only (and classic EM for the first of em and weighted-em). A
fit the unit already made costs its later method nothing: after
weighted-mv, the mbem row excludes round 0. Nor is a model evaluated
twice, so at r=1, where em and weighted-mv get mv's model, their rows
exclude its evaluation too.

Instead of synthesizing data, a sweep can run against pre-collected
annotation/feature/truth files, which read_inputs reads and checks for
the sweep and `mbem train` alike. A file-mode spec holds the five paths
as one input_files tuple, in FILE_KEYS order. Each process of a sweep
reads them on the first unit it runs, checks that they agree, and keeps
them for its later units in one cache, keyed by the five paths and
cleared when run_sweep returns: run_sweep's own process at jobs=1, and
each pool worker at jobs > 1, so the parent then reads nothing and a
worker that gets no unit reads nothing. Each unit draws floor(N / r) of
those examples, and simulate.subsample_redundancy, the unit's one cut,
keeps r annotations of each. A read or check that fails does so in its
unit by the rule above: a ValueError or RuntimeError fails the unit's
cells, and the next unit reads the files again; any other error, such
as a missing file, aborts the sweep (mbem sweep then exits with the
error's message).
"""

from __future__ import annotations

import csv
import functools
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io as mbio
from .learn import LearnerConfig, class_major, zero_one_risk
from .methods import METHODS, Unit, train_method
from .seeding import RngSeed
from .simulate import Scenario, WorkerSkillModel, make_synthetic_dataset, \
    simulate_unit, subsample_redundancy

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
    "learner") + FILE_KEYS


@dataclass(frozen=True)
class SweepSpec:
    budget: int
    redundancies: tuple[int, ...]
    methods: tuple[str, ...]
    scenario: Scenario
    seeds: tuple[int, ...]
    n_test: int = 4000
    learner: LearnerConfig = field(default_factory=LearnerConfig)
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
        # A negated test, so that NaN fails it.
        if not self.n_test >= 1:
            raise ValueError(f"n_test must be at least 1, got {self.n_test}")
        if self.input_files is not None:
            if len(self.input_files) != len(FILE_KEYS):
                raise ValueError(f"input_files must hold {len(FILE_KEYS)} "
                                 f"paths, got {len(self.input_files)}")
            for key, path in zip(FILE_KEYS, self.input_files):
                if not isinstance(path, str):
                    raise ValueError(f"{key}: a file path must be a string, "
                                     f"got {path!r}")


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
    """(unit, test_columns, y_test) for one (r, seed) unit, whose every
    fit draws from the substream ("fit", r) of seed; test_columns is the
    learner's ClassMajor copy of the test features."""
    n_train = spec.budget // r
    root = RngSeed(seed)
    if spec.input_files is not None:
        ann_all, X_all, y_all, X_test, y_test = _file_inputs(
            *spec.input_files)
        if n_train > ann_all.n:
            raise ValueError(f"{spec.input_files[0]}: annotation file has "
                             f"only {ann_all.n} examples, cell needs {n_train}")
        pick_rng = root.child("subset", r).generator()
        keep = np.sort(pick_rng.choice(ann_all.n, size=n_train, replace=False))
        try:
            ann = subsample_redundancy(ann_all, keep, r,
                                       root.child("labels", r))
        except ValueError as exc:
            raise ValueError(f"{spec.input_files[0]}: {exc}") from None
        X, y, conf_true = X_all[keep], y_all[keep], None
    else:
        scenario = spec.scenario
        X, y, ann, conf_true = simulate_unit(scenario, n_train, r, root)
        X_test, y_test = make_synthetic_dataset(
            spec.n_test, scenario.skill.K, scenario.d, scenario.margin,
            root.child("test-data"))
    unit = Unit(X, ann, spec.learner, root.child("fit", r), truth=y,
                oracle_confusions=conf_true)
    return unit, class_major(X_test), y_test


def _failed(spec, method, r, seed, exc, wall_time) -> CellRecord:
    return CellRecord(method=method, r=r, n_train=spec.budget // r, seed=seed,
                      test_risk=float("nan"), train_risk=float("nan"),
                      wall_time=wall_time,
                      error=f"{type(exc).__name__}: {exc}")


def _run_cell(spec: SweepSpec, method: str, r: int, seed: int,
              data, risks: dict) -> CellRecord:
    """Train and evaluate one method on data, _cell_data's (unit,
    test_columns, y_test). The methods of a unit share its fits (see
    methods.Unit.fit), and risks maps each model the unit evaluated to
    its (test_risk, train_risk). Bad data and a diverging learner
    (ValueError, RuntimeError) give an error record."""
    unit, test_columns, y_test = data
    start = time.perf_counter()
    try:
        model = train_method(method, unit).model
        # TrainedModel compares by identity, so a shared model is
        # evaluated once.
        if model not in risks:
            risks[model] = (zero_one_risk(model, test_columns, y_test),
                            zero_one_risk(model, unit.columns, unit.truth))
        test_risk, train_risk = risks[model]
        return CellRecord(method=method, r=r, n_train=spec.budget // r, seed=seed,
                          test_risk=test_risk, train_risk=train_risk,
                          wall_time=time.perf_counter() - start)
    except (ValueError, RuntimeError) as exc:
        return _failed(spec, method, r, seed, exc, time.perf_counter() - start)


def _run_unit(spec: SweepSpec, r: int, seed: int) -> list[CellRecord]:
    """One record per method of spec, in spec order, all on one unit."""
    try:
        data = _cell_data(spec, r, seed)
    except (ValueError, RuntimeError) as exc:
        return [_failed(spec, method, r, seed, exc, 0.0)
                for method in spec.methods]
    risks = {}
    return [_run_cell(spec, method, r, seed, data, risks)
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
    """Write sweep.csv, aggregate.csv and timing.csv.

    sweep.csv and aggregate.csv carry only deterministic fields (floats
    in shortest round-trip form) so reruns are byte-identical; wall-clock
    times go to timing.csv.
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

    _write_csv(out / "aggregate.csv", ["method", "r", "mean", "stderr", "n_seeds"],
               ([method, r, repr(agg.mean),
                 "" if agg.stderr is None else repr(agg.stderr), agg.n_seeds]
                for (method, r), agg in sorted(result.aggregates.items())))


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
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None
    if isinstance(value, bool) or (kind is int and out != value
                                   and not isinstance(value, str)):
        raise ValueError(message)
    return out


def _config_from(cls, values: Mapping, block: str, **given):
    """A config dataclass from values, coerced to the fields' types, and
    the fields in given, which values may not set; omitted fields default.
    A value that cannot take its field's type raises a ValueError naming
    it as block + field name (block is "learner." for learner.epochs)."""
    # Each field takes its default's type.
    types = {f.name: type(f.default) for f in fields(cls)
             if f.name not in given}
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
    seeds; each list holds distinct values. Optional keys: classes, m,
    feature_dim, margin and worker_model {kind, gamma}, which make up
    the simulate.Scenario; n_test; learner {kind, learning_rate,
    epochs, batch_size, hidden_units} for LearnerConfig; and for file
    mode annotations_file, features_file, truth_file, test_features_file
    and test_truth_file. File mode checks the scenario keys and n_test
    but does not use them.
    These are constants, not keys: the learner's l2 weight
    (learn.L2_PENALTY), and MBEM's smoothing (methods.MBEM_SMOOTHING),
    rounds (methods.MBEM_ROUNDS) and uniform class prior.
    A null value, such as an empty YAML block, counts as absent.
    Every default comes from a dataclass. The scenario's are those of
    `mbem simulate` too: classes, kind and gamma come from
    WorkerSkillModel, and m, margin and feature_dim (2 * classes) from
    Scenario. n_test's comes from SweepSpec and the learner's from
    LearnerConfig. Values are coerced to their fields' types, an
    integer only from an integral value. A key outside
    CONFIG_KEYS, a missing required key, an unknown worker_model or
    learner key, a block that is not a mapping and a value that cannot
    take its type each raise ValueError naming it, and so do a margin
    that is not finite, an m or n_test below 1, a feature_dim below
    classes and a file path that is not a string.
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
    learner = _config_from(LearnerConfig, _block(cfg, "learner"), "learner.")
    scenario = Scenario(skill=skill, d=scalar(int, "feature_dim", Scenario.d),
                        margin=scalar(float, "margin", Scenario.margin),
                        m=scalar(int, "m", Scenario.m))
    return SweepSpec(
        budget=scalar(int, "budget"),
        redundancies=_listed(cfg, "redundancies", int),
        methods=_listed(cfg, "methods", str),
        scenario=scenario,
        n_test=scalar(int, "n_test", SweepSpec.n_test),
        seeds=_listed(cfg, "seeds", int),
        learner=learner,
        input_files=None if absent else tuple(cfg[key] for key in FILE_KEYS),
    )
