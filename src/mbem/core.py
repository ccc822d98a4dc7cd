"""Dawid-Skene probability model of crowdsourced annotation.

Workers are modelled by row-stochastic K x K confusion matrices: entry
[k, s] is the probability that the worker reports class s when the true
class is k. This module holds the label-side machinery shared by every
aggregation method: majority-vote initialization, the label posterior
given confusion estimates, the maximum-likelihood confusion/prior
estimator against a set of hard labels, and the classic (model-free)
EM aggregator built from those two updates. dawid_skene_update chains
the two, and both classic_em and MBEM's relabel step run through it.
classic_em has no settings, so its result is a function of the
AnnotationSet alone: the set computes it on first use and keeps it
(AnnotationSet.classic_em), and every method that needs it shares one
run.

All operations are pure functions of their inputs and safe to call
concurrently. Confusion matrices for m workers travel as one (m, K, K)
array; per-example posteriors ("soft labels") as an (n, K) array whose
rows sum to one.

The posterior sums each example's log-likelihood terms in record order.
Which record goes to which example never changes across the iterations
of classic_em or the rounds of MBEM, so an AnnotationSet builds that
layout once, on first use, and keeps it: layer j holds the j-th record
of every example with more than j records. posterior adds one layer at
a time, so each example receives the same terms in the same order as a
record-by-record scatter-add, and the result is the same to the bit.
Counts (majority vote, confusion estimates) are single np.bincount calls
over a flat index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AnnotationSet",
    "clamp_confusions",
    "check_confusions",
    "check_prior",
    "majority_vote_init",
    "posterior",
    "estimate_confusions_and_prior",
    "classic_em",
    "hard_labels",
    "uniform_prior",
]

ROW_SUM_TOL = 1e-9
PRIOR_MODES = ("uniform", "estimated")

# classic_em's fixed settings: at most EM_MAX_ITERS updates, stopping
# once no posterior entry moves by EM_TOL or more; unsmoothed confusion
# estimates and a uniform class prior.
EM_MAX_ITERS = 100
EM_TOL = 1e-8
EM_SMOOTHING = 0.0
EM_PRIOR_MODE = "uniform"

_EMPTY_ROW_MESSAGE = (
    "confusion estimate with smoothing=0 has worker classes with no "
    "annotations; the affected rows were set to uniform"
)


@dataclass
class AnnotationSet:
    """Sparse (example, worker, label) triples over n examples, m workers, K classes.

    Redundancy may vary per example; the only structural requirement is
    that every example carries at least one annotation.

    The first posterior call builds and caches a record index grouped by
    each record's rank within its example (see the module docstring),
    and the first read of classic_em caches the classic EM result. Both
    are derived from example_ids, worker_ids and labels, so those arrays
    must not be reassigned or modified once the set is in use.
    """

    n: int
    m: int
    K: int
    example_ids: np.ndarray
    worker_ids: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.example_ids = np.asarray(self.example_ids, dtype=np.int64)
        self.worker_ids = np.asarray(self.worker_ids, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not (self.example_ids.shape == self.worker_ids.shape == self.labels.shape):
            raise ValueError("example_ids, worker_ids, labels must have equal length")
        if self.example_ids.ndim != 1:
            raise ValueError("annotation records must be one-dimensional")
        for name, arr, bound in (
            ("example_id", self.example_ids, self.n),
            ("worker_id", self.worker_ids, self.m),
            ("label", self.labels, self.K),
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= bound):
                raise ValueError(f"{name} out of range [0, {bound})")
        counts = np.bincount(self.example_ids, minlength=self.n)
        if self.n and counts.min() == 0:
            missing = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"example {missing} has no annotations")

    def __len__(self):
        return self.example_ids.size

    @classmethod
    def from_records(cls, records, n: int, m: int, K: int) -> "AnnotationSet":
        rec = np.asarray(records, dtype=np.int64).reshape(-1, 3)
        return cls(n=n, m=m, K=K,
                   example_ids=rec[:, 0], worker_ids=rec[:, 1], labels=rec[:, 2])

    @classmethod
    def from_tables(cls, worker_table: np.ndarray, label_table: np.ndarray,
                    m: int, K: int) -> "AnnotationSet":
        """Build from dense (n, r) worker-id and label tables."""
        worker_table = np.asarray(worker_table, dtype=np.int64)
        label_table = np.asarray(label_table, dtype=np.int64)
        if worker_table.shape != label_table.shape:
            raise ValueError("worker and label tables must have the same shape")
        n, r = worker_table.shape
        example_ids = np.repeat(np.arange(n, dtype=np.int64), r)
        return cls(n=n, m=m, K=K, example_ids=example_ids,
                   worker_ids=worker_table.ravel(), labels=label_table.ravel())

    def redundancy_counts(self) -> np.ndarray:
        """Number of annotations per example."""
        return np.bincount(self.example_ids, minlength=self.n)

    @cached_property
    def _layers(self) -> list[tuple[np.ndarray | None, np.ndarray]]:
        """[(examples, rows)] per rank j: layer j pairs each example with
        more than j records (None when that is all n examples) with the
        flat row worker_id * K + label of its j-th record, in record order."""
        order = np.argsort(self.example_ids, kind="stable")
        counts = self.redundancy_counts()
        starts = np.cumsum(counts) - counts
        rows = (self.worker_ids * self.K + self.labels)[order]
        layers = []
        for j in range(int(counts.max(initial=0))):
            ex = np.flatnonzero(counts > j)
            layers.append((None if ex.size == self.n else ex, rows[starts[ex] + j]))
        return layers

    @cached_property
    def classic_em(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """classic_em(self): (soft_labels, confusions, prior), run once.
        Every reader gets the same arrays and must not modify them."""
        return classic_em(self)


def uniform_prior(K: int) -> np.ndarray:
    return np.full(K, 1.0 / K)


def check_confusions(confusions: np.ndarray) -> np.ndarray:
    """Validate an (m, K, K) or (K, K) stack of row-stochastic matrices."""
    conf = np.asarray(confusions, dtype=np.float64)
    if conf.ndim == 2:
        conf = conf[None]
    if conf.ndim != 3 or conf.shape[1] != conf.shape[2]:
        raise ValueError(f"expected (m, K, K) confusion stack, got shape {conf.shape}")
    if conf.min() < -ROW_SUM_TOL or conf.max() > 1 + ROW_SUM_TOL:
        raise ValueError("confusion entries must lie in [0, 1]")
    if np.abs(conf.sum(axis=2) - 1.0).max() > ROW_SUM_TOL:
        raise ValueError("confusion rows must sum to 1")
    return conf


def check_prior(prior: np.ndarray) -> np.ndarray:
    prior = np.asarray(prior, dtype=np.float64)
    if prior.ndim != 1:
        raise ValueError("class prior must be a vector")
    if prior.min() < -ROW_SUM_TOL or abs(prior.sum() - 1.0) > ROW_SUM_TOL:
        raise ValueError("class prior must be a probability vector")
    return prior


def clamp_confusions(confusions: np.ndarray, clamp: float = 1e-6) -> np.ndarray:
    """Clamp entries to [clamp, 1-clamp] and renormalize each row.

    Keeps the posterior away from zero-probability annihilation when an
    estimated matrix contains exact zeros. clamp=0 is a no-op.
    """
    conf = np.asarray(confusions, dtype=np.float64)
    if clamp == 0.0:
        return conf
    if not 0.0 < clamp < 0.5:
        raise ValueError("clamp must lie in [0, 0.5)")
    conf = np.clip(conf, clamp, 1.0 - clamp)
    return conf / conf.sum(axis=-1, keepdims=True)


def majority_vote_init(ann: AnnotationSet) -> np.ndarray:
    """Per-example label frequencies: row i is the fraction of i's
    annotations voting for each class.

    The standard initializer for every aggregation loop here; with one
    annotation per example it reduces to a one-hot row at the observed
    label.
    """
    K = ann.K
    counts = np.bincount(ann.example_ids * K + ann.labels,
                         minlength=ann.n * K).reshape(ann.n, K).astype(np.float64)
    return counts / counts.sum(axis=1)[:, None]


def posterior(ann: AnnotationSet, confusions: np.ndarray, prior: np.ndarray,
              clamp: float = 1e-6) -> np.ndarray:
    """Posterior distribution of each true label given its annotations.

    Row i is proportional to prior[k] * prod_j conf[w_ij, k, z_ij] over
    the annotations (w_ij, z_ij) of example i, normalized over k. The
    product is accumulated in log space so long annotation lists cannot
    underflow. Confusion entries are clamped away from exact 0/1 first
    (see clamp_confusions); pass clamp=0 to use the matrices as given,
    in which case an example whose numerator vanishes for every class
    raises.
    """
    conf = clamp_confusions(check_confusions(confusions), clamp)
    prior = check_prior(prior)
    if conf.shape[0] < ann.m or conf.shape[1] != ann.K:
        raise ValueError("confusion stack does not cover this annotation set")

    # Row w * K + z of the table is log conf[w, :, z].
    with np.errstate(divide="ignore"):
        table = np.log(conf).transpose(0, 2, 1).reshape(-1, ann.K)
        rows = np.tile(np.log(prior), (ann.n, 1))
    for ex, wz in ann._layers:
        if ex is None:
            rows += np.take(table, wz, axis=0)
        else:
            rows[ex] += np.take(table, wz, axis=0)
    shift = rows.max(axis=1)
    dead = ~np.isfinite(shift)
    if dead.any():
        raise ValueError(
            f"example {int(np.flatnonzero(dead)[0])} has zero posterior mass "
            "for every class; enable clamping or fix the confusion estimates"
        )
    rows -= shift[:, None]
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def estimate_confusions_and_prior(ann: AnnotationSet, t: np.ndarray,
                                  smoothing: float = 1.0):
    """Maximum-likelihood confusion matrices and class prior against hard labels t.

    conf[a, k, s] = (#{worker a labelled s where t=k} + smoothing)
                  / (#{worker a annotations where t=k} + K * smoothing)
    prior[k]      = fraction of t equal to k.

    smoothing=0 gives the exact count-ratio estimate; worker classes
    that then have no annotations are returned as uniform rows and
    flagged with a RuntimeWarning. Workers never seen in ann get
    all-uniform matrices.
    """
    t = np.asarray(t, dtype=np.int64)
    if t.shape != (ann.n,):
        raise ValueError("t must supply one hard label per example")
    if ann.n and (t.min() < 0 or t.max() >= ann.K):
        raise ValueError("hard labels out of range")
    if smoothing < 0:
        raise ValueError("smoothing must be nonnegative")

    K = ann.K
    num = np.bincount((ann.worker_ids * K + t[ann.example_ids]) * K + ann.labels,
                      minlength=ann.m * K * K).reshape(ann.m, K, K).astype(np.float64)
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


def hard_labels(soft: np.ndarray) -> np.ndarray:
    """Row-wise argmax; ties break toward the lowest class index."""
    return np.argmax(np.asarray(soft), axis=1)


# Deliberately left out of __all__: the benchmark tracer
# (perfbench/spans.py) wraps every __all__ function, and a wrapped update
# would stand between classic_em and its posterior calls, which is how
# the tracer counts EM iterations.
def dawid_skene_update(ann: AnnotationSet, t: np.ndarray, smoothing: float,
                       prior_mode: str):
    """One Dawid-Skene update against hard labels t: estimate confusions
    and prior, then recompute the label posterior. Returns (posterior,
    confusions, prior); prior_mode "uniform" replaces the estimated
    prior by the uniform one."""
    conf, q_hat = estimate_confusions_and_prior(ann, t, smoothing=smoothing)
    prior = uniform_prior(ann.K) if prior_mode == "uniform" else q_hat
    return posterior(ann, conf, prior), conf, prior


def classic_em(ann: AnnotationSet):
    """Model-free Dawid-Skene EM over the annotations alone.

    Starts from the majority vote, then repeats dawid_skene_update on
    the current argmax labels, unsmoothed and with a uniform prior,
    stopping when the max absolute posterior change drops below EM_TOL
    or after EM_MAX_ITERS rounds. Returns (soft_labels, confusions,
    prior) from the final round. Callers that share one set read
    ann.classic_em, which runs this once.

    With one label per example this degenerates as expected: every
    worker's visited confusion rows come out exactly diagonal, i.e. the
    procedure believes all workers are perfect.
    """
    soft = majority_vote_init(ann)
    conf = np.tile(np.eye(ann.K), (ann.m, 1, 1))
    prior = uniform_prior(ann.K)
    for _ in range(EM_MAX_ITERS):
        new_soft, conf, prior = dawid_skene_update(ann, hard_labels(soft),
                                                   EM_SMOOTHING, EM_PRIOR_MODE)
        delta = np.abs(new_soft - soft).max()
        soft = new_soft
        if delta < EM_TOL:
            break
    return soft, conf, prior
