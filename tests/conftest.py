import warnings

import numpy as np
import pytest

from mbem.core import (
    _EMPTY_ROW_MESSAGE,
    AnnotationSet,
    check_confusions,
    check_prior,
    clamp_confusions,
)
from mbem.learn import param_count
from mbem.seeding import as_seed


def random_confusions(rng, m, K, floor=0.02):
    """Row-stochastic matrices with every entry bounded away from 0."""
    conf = floor + rng.random((m, K, K))
    return conf / conf.sum(axis=2, keepdims=True)


def random_prior(rng, K, floor=0.05):
    p = floor + rng.random(K)
    return p / p.sum()


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


def posterior_oracle(ann, conf, prior):
    """Direct per-example evaluation of prior[k] * prod conf[w, k, z]."""
    rows = []
    records = list(zip(ann.example_ids, ann.worker_ids, ann.labels))
    for i in range(ann.n):
        probs = []
        for k in range(ann.K):
            p = float(prior[k])
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


def posterior_add_at(ann, confusions, prior, clamp=1e-6):
    conf = clamp_confusions(check_confusions(confusions), clamp)
    prior = check_prior(prior)
    if conf.shape[0] < ann.m or conf.shape[1] != ann.K:
        raise ValueError("confusion stack does not cover this annotation set")

    lik = conf[ann.worker_ids, :, ann.labels]  # (records, K)
    with np.errstate(divide="ignore"):
        log_rows = np.tile(np.log(prior), (ann.n, 1))
        np.add.at(log_rows, ann.example_ids, np.log(lik))
    shift = log_rows.max(axis=1)
    dead = ~np.isfinite(shift)
    if dead.any():
        raise ValueError(
            f"example {int(np.flatnonzero(dead)[0])} has zero posterior mass "
            "for every class; enable clamping or fix the confusion estimates"
        )
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
    """Row-major gradient of the soft-label cross-entropy plus l2 term."""
    n, d = X.shape
    H = cfg.hidden_units
    probs, hidden = forward_oracle(params, X, cfg.learner_kind, K, H)
    G = (probs - soft) / n
    if cfg.learner_kind == "multinomial_logistic":
        grad = np.concatenate([(G.T @ X).ravel(), G.sum(axis=0)])
    else:
        W2 = params[H * d + H: H * d + H + K * H].reshape(K, H)
        Gh = (G @ W2) * (1.0 - hidden * hidden)
        grad = np.concatenate([(Gh.T @ X).ravel(), Gh.sum(axis=0),
                               (G.T @ hidden).ravel(), G.sum(axis=0)])
    return grad + cfg.l2_penalty * params


def fit_oracle(X, soft, cfg, seed):
    """learn.fit's parameters, by row-major steps on row-gathered batches
    with the same initialization and shuffle draws."""
    n, d = X.shape
    K = soft.shape[1]
    seed = as_seed(seed)
    params = cfg.init_scale * seed.child("init").generator().standard_normal(
        param_count(cfg, d, K))
    shuffle_rng = seed.child("shuffle").generator()
    batch = cfg.batch_size if 0 < cfg.batch_size < n else n
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n) if batch < n else np.arange(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            params = params - cfg.learning_rate * gradient_oracle(
                params, X[idx], soft[idx], cfg, K)
    return params


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
