"""CSV and checkpoint formats.

Data files are comma-separated with a header line, and every line ends
in CRLF. Annotation file: header ``example_id,worker_id,label``, 0-based
integers. Truth file: ``example_id,label``, integers. Features:
``example_id,x0,...,xd-1``, each value at 17 significant digits, so
that it reads back exactly. Soft labels: ``example_id,p0,...,pK-1``
with 12 significant digits. Confusion matrices travel in long format
``worker_id,k,s,prob``, prob at 12 significant digits. The writers
format each row with one format string and stream the lines to the
file; none builds the whole file in memory.

Every reader requires at least one row below the header, the file's
columns (exactly 3 for annotations, 2 for truth and 4 for confusions;
at least 2 for features and soft labels), then its writer's header for
that many columns, ending in CRLF or LF; and the readers of truth,
soft label and feature files require example_id to hold each of 0..n-1
exactly once. A confusion file needs one row per entry of the (m, K, K)
table that its largest worker_id, k and s span. Every feature value must
be finite. Every soft label must be finite and in [0, 1], and each soft
label row must sum to 1 within core.ROW_SUM_TOL (1e-9), as a confusion
row must: at 12 significant digits each written entry is off by at most
5e-12 of itself, so a written row's sum is off by at most 5e-12. Model
checkpoints are a parameter CSV (one value per line, full precision)
plus a JSON sidecar with ``kind, K, d, hidden_units``.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .core import ROW_SUM_TOL, AnnotationSet, check_confusions
from .learn import TrainedModel

__all__ = [
    "write_annotations", "read_annotations",
    "write_truth", "read_truth",
    "write_soft_labels", "read_soft_labels",
    "write_confusions", "read_confusions",
    "write_features", "read_features",
    "save_model", "load_model",
]

# The header of each file with fixed columns, as its writer writes it.
_ANNOTATION_HEADER = ["example_id", "worker_id", "label"]
_TRUTH_HEADER = ["example_id", "label"]
_CONFUSION_HEADER = ["worker_id", "k", "s", "prob"]


def _write_rows(path, header, row_format, rows):
    """Write the header and then each row, a tuple of Python values,
    formatted by `row_format % row`; every line ends in CRLF. The lines
    are streamed to the file, never joined into one string."""
    line = row_format + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in rows)


def _values_header(letter, count):
    """example_id, then x0.. (features) or p0.. (soft labels) by letter."""
    return ["example_id"] + [f"{letter}{j}" for j in range(count)]


def _read_rows(path, header, dtype=np.float64) -> np.ndarray:
    """The rows below the header line as a 2-d array; ValueError, naming
    the file, if there are none, if a row is ragged or holds a value that
    is not a number of dtype, unless they have exactly header's columns
    (at least 2 if header is a letter; see _values_header), or unless the
    header line, ending in CRLF or LF, is the one header names."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype,
                              ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not len(data):
        raise ValueError(f"{path}: no data rows below the header")
    found = data.shape[1]
    columns = None if isinstance(header, str) else len(header)
    if found < 2 or columns not in (None, found):
        raise ValueError(f"{path}: expected {columns or 'at least 2'} "
                         f"columns, found {found}")
    expected = ",".join(header if columns else
                        _values_header(header, found - 1))
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        line = fh.readline().removesuffix("\n").removesuffix("\r")
    if line != expected:
        raise ValueError(f"{path}: header {line!r}, expected {expected!r}")
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
    _write_rows(path, _ANNOTATION_HEADER, "%d,%d,%d", rows)


def read_annotations(path) -> AnnotationSet:
    """Load annotations; n, m and K are one more than the largest
    example_id, worker_id and label. ValueError, naming the file, on a
    negative value or an example_id below n with no annotations."""
    data = _read_rows(path, _ANNOTATION_HEADER, np.int64)
    e, w, z = data[:, 0], data[:, 1], data[:, 2]
    try:
        return AnnotationSet(n=int(e.max()) + 1, m=int(w.max()) + 1,
                             K=int(z.max()) + 1,
                             example_ids=e, worker_ids=w, labels=z)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_truth(path, truth: np.ndarray) -> None:
    truth = np.asarray(truth, dtype=np.int64)
    _write_rows(path, _TRUTH_HEADER, "%d,%d", enumerate(truth.tolist()))


def read_truth(path) -> np.ndarray:
    """True labels in example_id order; ValueError, naming the file, on
    a negative label."""
    data = _read_rows(path, _TRUTH_HEADER, np.int64)
    if data[:, 1].min() < 0:
        raise ValueError(f"{path}: negative label {data[:, 1].min()}")
    return data[_id_order(path, data[:, 0]), 1]


def write_soft_labels(path, soft: np.ndarray) -> None:
    soft = np.asarray(soft, dtype=np.float64)
    K = soft.shape[1]
    rows = ((i, *row) for i, row in enumerate(soft.tolist()))
    _write_rows(path, _values_header("p", K), "%d" + ",%.12g" * K, rows)


def read_soft_labels(path) -> np.ndarray:
    """Soft labels in example_id order; ValueError, naming the file and
    the first example_id at fault, on a value that is not finite, a value
    outside [0, 1] or a row that does not sum to 1 within ROW_SUM_TOL."""
    data = _read_rows(path, "p")
    soft = data[_id_order(path, data[:, 0]), 1:]
    for ok, fault in (
            (np.isfinite(soft).all(axis=1), "a value that is not finite"),
            (((soft >= 0) & (soft <= 1)).all(axis=1),
             "a value outside [0, 1]"),
            (np.abs(soft.sum(axis=1) - 1.0) <= ROW_SUM_TOL,
             "values that do not sum to 1")):
        if not ok.all():
            raise ValueError(f"{path}: example_id {ok.argmin()} holds "
                             f"{fault}")
    return soft


def write_confusions(path, confusions: np.ndarray) -> None:
    """Long format worker_id,k,s,prob covering every entry."""
    conf = np.asarray(confusions, dtype=np.float64)
    a, k, s = (idx.ravel().tolist() for idx in np.indices(conf.shape))
    rows = zip(a, k, s, conf.ravel().tolist())
    _write_rows(path, _CONFUSION_HEADER, "%d,%d,%d,%.12g", rows)


def read_confusions(path) -> np.ndarray:
    """An (m, K, K) row-stochastic stack, m and K one above the largest
    worker_id and k or s; ValueError, naming the file, unless each of those
    is an integer that fits int64, the file has one row per (worker_id, k,
    s) below (m, K, K), so m * K * K rows, and every row sums to 1."""
    data = _read_rows(path, _CONFUSION_HEADER)
    ids = data[:, :3]
    integral = np.isfinite(ids) & (ids == np.round(ids))
    # int64's bounds, -2**63 and 2**63, are exact in float64.
    in_range = (ids >= -2.0 ** 63) & (ids < 2.0 ** 63)
    for ok, fault in ((integral, "is not an integer"),
                      (in_range, "does not fit int64")):
        ok = ok.all(axis=1)
        if not ok.all():
            row = ok.argmin()
            raise ValueError(f"{path}: data row {row + 1} holds a worker_id, "
                             f"k or s that {fault}: "
                             + ",".join(f"{v:g}" for v in data[row]))
    index = ids.astype(np.int64)
    if index.min() < 0:
        raise ValueError(f"{path}: negative worker_id, k or s")
    m, K = int(index[:, 0].max()) + 1, int(index[:, 1:].max()) + 1
    # Before the count table, so that one large index cannot size it.
    if m * K * K != len(data):
        raise ValueError(f"{path}: {len(data)} data rows, not one per entry "
                         f"of (m, K, K) = ({m}, {K}, {K})")
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
    d = features.shape[1]
    rows = ((i, *row) for i, row in enumerate(features.tolist()))
    _write_rows(path, _values_header("x", d), "%d" + ",%.17g" * d, rows)


def read_features(path) -> np.ndarray:
    """Features in example_id order; ValueError, naming the file and the
    first example_id, on a value that is not finite."""
    data = _read_rows(path, "x")
    X = data[_id_order(path, data[:, 0]), 1:]
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: example_id {finite.argmin()} holds a "
                         "non-finite feature value")
    return X


def save_model(out_dir, model: TrainedModel) -> None:
    """Write model_params.csv and model_meta.json. model_params.csv holds
    one value per line: each layer's weights, row by row, then its bias,
    so [W, b] or [W1, b1, W2, b2]."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "model_params.csv", "w") as fh:
        for v in model.parameters:
            fh.write(f"{v:.17g}\n")
    meta = {"kind": model.kind, "K": model.K, "d": model.d,
            "hidden_units": model.hidden_units}
    with open(out / "model_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_model(out_dir) -> TrainedModel:
    out = Path(out_dir)
    params = np.loadtxt(out / "model_params.csv", ndmin=1)
    with open(out / "model_meta.json") as fh:
        meta = json.load(fh)
    return TrainedModel(parameters=params, kind=meta["kind"],
                        K=meta["K"], d=meta["d"],
                        hidden_units=meta["hidden_units"])
