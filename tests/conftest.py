import csv
import itertools
import warnings

import numpy as np
import pytest

from mbem import learn
from mbem.core import (
    _EMPTY_ROW_MESSAGE,
    CONFUSION_CLAMP,
    EM_MAX_ITERS,
    EM_SMOOTHING,
    AnnotationSet,
    check_confusions,
    dawid_skene_update,
    hard_labels,
    majority_vote_init,
)
from mbem.harness import SWEEP_COLUMNS
from mbem.learn import param_count
from mbem.seeding import as_seed


def random_confusions(rng, m, K, floor=0.02):
    """Row-stochastic matrices with every entry bounded away from 0."""
    conf = floor + rng.random((m, K, K))
    return conf / conf.sum(axis=2, keepdims=True)


def random_instance(rng, n, m, K, r_max, variable_r=True):
    """An annotation set with 1..r_max labels per example."""
    records = []
    for i in range(n):
        r = int(rng.integers(1, r_max + 1)) if variable_r else r_max
        for _ in range(r):
            records.append((i, int(rng.integers(0, m)), int(rng.integers(0, K))))
    return AnnotationSet.from_records(records, n=n, m=m, K=K)


def records(ann):
    """The annotations of ann as (example_id, worker_id, label) tuples."""
    return list(zip(ann.example_ids.tolist(), ann.worker_ids.tolist(),
                    ann.labels.tolist()))


def posterior_oracle(ann, conf):
    """Direct per-example evaluation of (1 / K) * prod conf[w, k, z]."""
    rows = []
    records = list(zip(ann.example_ids, ann.worker_ids, ann.labels))
    for i in range(ann.n):
        probs = []
        for k in range(ann.K):
            p = 1.0 / ann.K
            for e, w, z in records:
                if e == i:
                    p *= float(conf[w][k][z])
            probs.append(p)
        total = sum(probs)
        rows.append([p / total for p in probs])
    return np.array(rows)


def estimate_oracle(ann, t, smoothing=0.0):
    """Naive counting version of the confusion/prior estimator."""
    records = list(zip(ann.example_ids, ann.worker_ids, ann.labels))
    conf = np.empty((ann.m, ann.K, ann.K))
    for a in range(ann.m):
        for k in range(ann.K):
            den = sum(1 for e, w, _ in records if w == a and t[e] == k)
            for s in range(ann.K):
                num = sum(1 for e, w, z in records
                          if w == a and t[e] == k and z == s)
                if den + ann.K * smoothing > 0:
                    conf[a, k, s] = (num + smoothing) / (den + ann.K * smoothing)
                else:
                    conf[a, k, s] = 1.0 / ann.K
    prior = np.array([sum(1 for x in t if x == k) / ann.n
                      for k in range(ann.K)])
    return conf, prior


# The record-by-record np.add.at forms of core's three kernels, as they
# stood before the cached record index; the kernels must match them bit
# for bit.

def majority_vote_add_at(ann):
    counts = np.zeros((ann.n, ann.K))
    np.add.at(counts, (ann.example_ids, ann.labels), 1.0)
    totals = counts.sum(axis=1)
    if ann.n and totals.min() == 0:
        missing = int(np.flatnonzero(totals == 0)[0])
        raise ValueError(f"example {missing} has no annotations")
    return counts / totals[:, None]


def posterior_add_at(ann, confusions):
    conf = np.clip(check_confusions(confusions), CONFUSION_CLAMP,
                   1.0 - CONFUSION_CLAMP)
    conf = conf / conf.sum(axis=-1, keepdims=True)
    if conf.shape[0] < ann.m or conf.shape[1] != ann.K:
        raise ValueError("confusion stack does not cover this annotation set")

    lik = conf[ann.worker_ids, :, ann.labels]  # (records, K)
    log_rows = np.tile(np.log(np.full(ann.K, 1.0 / ann.K)), (ann.n, 1))
    np.add.at(log_rows, ann.example_ids, np.log(lik))
    shift = log_rows.max(axis=1)
    rows = np.exp(log_rows - shift[:, None])
    return rows / rows.sum(axis=1, keepdims=True)


def estimate_add_at(ann, t, smoothing=1.0):
    t = np.asarray(t, dtype=np.int64)
    num = np.zeros((ann.m, ann.K, ann.K))
    np.add.at(num, (ann.worker_ids, t[ann.example_ids], ann.labels), 1.0)
    den = num.sum(axis=2)

    if smoothing > 0:
        conf = (num + smoothing) / (den + ann.K * smoothing)[:, :, None]
    else:
        conf = np.empty_like(num)
        seen = den > 0
        np.divide(num, den[:, :, None], out=conf, where=seen[:, :, None])
        conf[~seen] = 1.0 / ann.K
        if not seen.all():
            warnings.warn(_EMPTY_ROW_MESSAGE, RuntimeWarning, stacklevel=2)

    prior = np.bincount(t, minlength=ann.K) / max(ann.n, 1)
    return conf, prior


def classic_em_tol_oracle(ann, tol=1e-8):
    """classic_em as it stood before the repeated-label stop: update on
    the argmax labels until no posterior entry moves by tol or more."""
    soft = majority_vote_init(ann)
    for _ in range(EM_MAX_ITERS):
        new_soft, conf = dawid_skene_update(ann, hard_labels(soft),
                                            EM_SMOOTHING)
        delta = np.abs(new_soft - soft).max()
        soft = new_soft
        if delta < tol:
            break
    return soft, conf


def corrupt_labels_oracle(truth, assignment, confusions, seed):
    """simulate.corrupt_labels' (n, r) label table, one record at a time:
    record (i, j), in record order, draws the next uniform u of the
    seed's "corrupt" stream and counts the running sums of its worker's
    row truth[i] that u exceeds, capped at K - 1."""
    conf = np.asarray(confusions, dtype=np.float64).tolist()
    K = len(conf[0])
    rng = as_seed(seed).child("corrupt").generator()
    labels = []
    for i, workers in enumerate(np.asarray(assignment).tolist()):
        row = []
        for w in workers:
            u = rng.random()
            cdf = itertools.accumulate(conf[w][int(truth[i])])
            row.append(min(sum(u > c for c in cdf), K - 1))
        labels.append(row)
    return np.array(labels, dtype=np.int64)


def _write_rows_oracle(path, header, rows):
    """The io writers below are as they stood on csv.writer, formatting
    one value at a time: the byte-for-byte reference for io's writers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_annotations_oracle(path, ann):
    rows = zip(ann.example_ids.tolist(), ann.worker_ids.tolist(),
               ann.labels.tolist())
    _write_rows_oracle(path, ["example_id", "worker_id", "label"], rows)


def write_truth_oracle(path, truth):
    truth = np.asarray(truth, dtype=np.int64)
    _write_rows_oracle(path, ["example_id", "label"],
                       enumerate(truth.tolist()))


def write_soft_labels_oracle(path, soft):
    soft = np.asarray(soft, dtype=np.float64)
    header = ["example_id"] + [f"p{k}" for k in range(soft.shape[1])]
    rows = ([i] + [f"{v:.12g}" for v in row]
            for i, row in enumerate(soft.tolist()))
    _write_rows_oracle(path, header, rows)


def write_confusions_oracle(path, confusions):
    conf = np.asarray(confusions, dtype=np.float64)
    m, K, _ = conf.shape
    rows = ((a, k, s, f"{conf[a, k, s]:.12g}")
            for a in range(m) for k in range(K) for s in range(K))
    _write_rows_oracle(path, ["worker_id", "k", "s", "prob"], rows)


def write_features_oracle(path, features):
    features = np.asarray(features, dtype=np.float64)
    header = ["example_id"] + [f"x{j}" for j in range(features.shape[1])]
    rows = ([i] + [f"{v:.17g}" for v in row]
            for i, row in enumerate(features.tolist()))
    _write_rows_oracle(path, header, rows)


def forward_oracle(params, X, kind, K, H):
    """Row-major class probabilities (n, K) and hidden layer (n, H)."""
    d = X.shape[1]
    if kind == "multinomial_logistic":
        W = params[: K * d].reshape(K, d)
        scores, hidden = X @ W.T + params[K * d:], None
    else:
        W1 = params[: H * d].reshape(H, d)
        b1 = params[H * d: H * d + H]
        W2 = params[H * d + H: H * d + H + K * H].reshape(K, H)
        hidden = np.tanh(X @ W1.T + b1)
        scores = hidden @ W2.T + params[H * d + H + K * H:]
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True), hidden


def gradient_oracle(params, X, soft, cfg, K):
    """Row-major gradient of the soft-label cross-entropy plus the l2
    term, weighted by learn.L2_PENALTY as read at call time."""
    n, d = X.shape
    H = cfg.hidden_units
    probs, hidden = forward_oracle(params, X, cfg.kind, K, H)
    G = (probs - soft) / n
    if cfg.kind == "multinomial_logistic":
        grad = np.concatenate([(G.T @ X).ravel(), G.sum(axis=0)])
    else:
        W2 = params[H * d + H: H * d + H + K * H].reshape(K, H)
        Gh = (G @ W2) * (1.0 - hidden * hidden)
        grad = np.concatenate([(Gh.T @ X).ravel(), Gh.sum(axis=0),
                               (G.T @ hidden).ravel(), G.sum(axis=0)])
    return grad + learn.L2_PENALTY * params


def fit_oracle(X, soft, cfg, seed):
    """learn.fit's parameters, by row-major steps on row-gathered batches
    with the same initialization and shuffle draws."""
    n, d = X.shape
    K = soft.shape[1]
    seed = as_seed(seed)
    init = seed.child("init").generator()
    # Read at call time, so that a test can monkeypatch it.
    params = learn.INIT_SCALE * init.standard_normal(param_count(cfg, d, K))
    shuffle_rng = seed.child("shuffle").generator()
    batch = cfg.batch_size if 0 < cfg.batch_size < n else n
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n) if batch < n else np.arange(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            params = params - cfg.learning_rate * gradient_oracle(
                params, X[idx], soft[idx], cfg, K)
    return params


def sweep_rows(path):
    """The rows of a sweep.csv as dicts of strings, after checking that
    its header is SWEEP_COLUMNS and that no row is ragged."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == SWEEP_COLUMNS
    assert all(len(row) == len(header) for row in rows)
    return [dict(zip(header, row)) for row in rows]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
