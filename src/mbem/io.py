"""CSV and checkpoint formats.

Annotation file: header ``example_id,worker_id,label``, 0-based integers.
Truth file: ``example_id,label``. Soft labels: ``example_id,p0,...,pK-1``
with 12 significant digits. Every reader requires at least one row below
the header, and the readers of truth, soft label and feature files
require example_id to hold each of 0..n-1 exactly once. Confusion
matrices travel in long format ``worker_id,k,s,prob``. Model checkpoints
are a parameter CSV (one value per line, full precision) plus a JSON
sidecar with ``kind, K, d, hidden_units``.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .core import AnnotationSet, check_confusions
from .learn import TrainedModel

__all__ = [
    "write_annotations", "read_annotations",
    "write_truth", "read_truth",
    "write_soft_labels", "read_soft_labels",
    "write_confusions", "read_confusions",
    "write_features", "read_features",
    "save_model", "load_model",
]


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path, dtype=np.float64) -> np.ndarray:
    """The rows below the header line as a 2-d array; ValueError, naming
    the file, if there are none."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype,
                          ndmin=2)
    if not len(data):
        raise ValueError(f"{path}: no data rows below the header")
    return data


def _id_order(path, ids: np.ndarray) -> np.ndarray:
    """Row order by example_id; ValueError unless the ids are 0..n-1,
    each once."""
    order = np.argsort(ids)
    if not np.array_equal(ids[order], np.arange(ids.size)):
        raise ValueError(f"{path}: example_id must hold each of "
                         f"0..{ids.size - 1} exactly once")
    return order


def write_annotations(path, ann: AnnotationSet) -> None:
    rows = zip(ann.example_ids.tolist(), ann.worker_ids.tolist(),
               ann.labels.tolist())
    _write_rows(path, ["example_id", "worker_id", "label"], rows)


def read_annotations(path) -> AnnotationSet:
    """Load annotations; n, m and K are one more than the largest
    example_id, worker_id and label. ValueError, naming the file, on a
    negative value or an example_id below n with no annotations."""
    data = _read_rows(path, np.int64)
    e, w, z = data[:, 0], data[:, 1], data[:, 2]
    try:
        return AnnotationSet(n=int(e.max()) + 1, m=int(w.max()) + 1,
                             K=int(z.max()) + 1,
                             example_ids=e, worker_ids=w, labels=z)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_truth(path, truth: np.ndarray) -> None:
    truth = np.asarray(truth, dtype=np.int64)
    _write_rows(path, ["example_id", "label"], enumerate(truth.tolist()))


def read_truth(path) -> np.ndarray:
    data = _read_rows(path, np.int64)
    return data[_id_order(path, data[:, 0]), 1]


def write_soft_labels(path, soft: np.ndarray) -> None:
    soft = np.asarray(soft, dtype=np.float64)
    header = ["example_id"] + [f"p{k}" for k in range(soft.shape[1])]
    rows = ([i] + [f"{v:.12g}" for v in row]
            for i, row in enumerate(soft.tolist()))
    _write_rows(path, header, rows)


def read_soft_labels(path) -> np.ndarray:
    data = _read_rows(path)
    return data[_id_order(path, data[:, 0]), 1:]


def write_confusions(path, confusions: np.ndarray) -> None:
    """Long format worker_id,k,s,prob covering every entry."""
    conf = np.asarray(confusions, dtype=np.float64)
    m, K, _ = conf.shape
    rows = ((a, k, s, f"{conf[a, k, s]:.12g}")
            for a in range(m) for k in range(K) for s in range(K))
    _write_rows(path, ["worker_id", "k", "s", "prob"], rows)


def read_confusions(path) -> np.ndarray:
    """An (m, K, K) row-stochastic stack; ValueError, naming the file,
    unless each (worker_id, k, s) below (m, K, K) appears exactly once
    and every row sums to 1."""
    data = _read_rows(path)
    index = data[:, :3].astype(np.int64)
    if index.min() < 0:
        raise ValueError(f"{path}: negative worker_id, k or s")
    m, K = int(index[:, 0].max()) + 1, int(index[:, 1:].max()) + 1
    seen = np.bincount(np.ravel_multi_index(index.T, (m, K, K)),
                       minlength=m * K * K).reshape(m, K, K)
    if (seen != 1).any():
        a, k, s = np.argwhere(seen != 1)[0]
        raise ValueError(f"{path}: entry (worker_id={a}, k={k}, s={s}) "
                         f"appears {seen[a, k, s]} times, not once")
    conf = np.empty((m, K, K))
    conf[tuple(index.T)] = data[:, 3]
    try:
        return check_confusions(conf)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_features(path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float64)
    header = ["example_id"] + [f"x{j}" for j in range(features.shape[1])]
    # Python floats format faster than numpy scalars, to the same text.
    rows = ([i] + [f"{v:.17g}" for v in row]
            for i, row in enumerate(features.tolist()))
    _write_rows(path, header, rows)


def read_features(path) -> np.ndarray:
    data = _read_rows(path)
    return data[_id_order(path, data[:, 0]), 1:]


def save_model(out_dir, model: TrainedModel) -> None:
    """Write model_params.csv (one value per line) and model_meta.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "model_params.csv", "w") as fh:
        for v in model.parameters:
            fh.write(f"{v:.17g}\n")
    meta = {"kind": model.learner_kind, "K": model.K, "d": model.d,
            "hidden_units": model.hidden_units}
    with open(out / "model_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_model(out_dir) -> TrainedModel:
    out = Path(out_dir)
    params = np.loadtxt(out / "model_params.csv", ndmin=1)
    with open(out / "model_meta.json") as fh:
        meta = json.load(fh)
    return TrainedModel(parameters=params, learner_kind=meta["kind"],
                        K=meta["K"], d=meta["d"],
                        hidden_units=meta["hidden_units"])
