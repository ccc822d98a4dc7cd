"""Dawid-Skene probability model of crowdsourced annotation.

Workers are modelled by row-stochastic K x K confusion matrices: entry
[k, s] is the probability that the worker reports class s when the true
class is k. This module holds the label-side machinery shared by every
aggregation method: majority-vote initialization, the label posterior
given confusion estimates under a uniform class prior, the
maximum-likelihood confusion/prior estimator against a set of hard
labels, and the classic (model-free) EM aggregator built from those two
updates. dawid_skene_update chains the two, and both classic_em and
MBEM's relabel step run through it.
The majority vote and classic_em have no settings, so each is a
function of the AnnotationSet alone: the set computes each on first use
and keeps it, read-only (AnnotationSet.majority_vote and
AnnotationSet.classic_em). Classic EM's start and every method that
needs one of them share that one result.

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

posterior clips every confusion entry to [CONFUSION_CLAMP,
1 - CONFUSION_CLAMP] and renormalises each row before taking logs, so
no exact 0 from an estimated matrix can zero out a class: every
log-likelihood term is finite, and so is every posterior row. Before
that, posterior runs check_confusions on the stack it is given, unless
the caller passes check=False: dawid_skene_update alone does, for the
estimate it has just made, whose rows are row-stochastic by
construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "AnnotationSet",
    "check_confusions",
    "majority_vote_init",
    "posterior",
    "estimate_confusions_and_prior",
    "classic_em",
    "hard_labels",
]

ROW_SUM_TOL = 1e-9
# posterior's floor on confusion entries (and 1 - it, the ceiling).
CONFUSION_CLAMP = 1e-6

# classic_em's fixed settings: at most EM_MAX_ITERS updates, stopping
# once the argmax labels repeat; unsmoothed confusion estimates and a
# uniform class prior.
EM_MAX_ITERS = 100
EM_SMOOTHING = 0.0

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
    and the first reads of majority_vote and classic_em cache the
    majority vote and the classic EM result. All three are derived from
    example_ids, worker_ids and labels, so those arrays must not be
    reassigned or modified once the set is in use.
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
        missing = np.flatnonzero(self.redundancy_counts() == 0)
        if missing.size:
            raise ValueError(f"example {missing[0]} has no annotations")

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
    def _layers(self) -> list[tuple[np.ndarray | slice, np.ndarray]]:
        """[(examples, rows)] per rank j: layer j pairs each example with
        more than j records (slice(None) when that is all n) with the flat
        row worker_id * K + label of its j-th record, in record order."""
        order = np.argsort(self.example_ids, kind="stable")
        counts = self.redundancy_counts()
        starts = np.cumsum(counts) - counts
        rows = (self.worker_ids * self.K + self.labels)[order]
        layers = []
        for j in range(int(counts.max(initial=0))):
            ex = np.flatnonzero(counts > j)
            layers.append((slice(None) if ex.size == self.n else ex,
                           rows[starts[ex] + j]))
        return layers

    @cached_property
    def majority_vote(self) -> np.ndarray:
        """majority_vote_init(self), computed once; read-only."""
        soft = majority_vote_init(self)
        soft.flags.writeable = False
        return soft

    @cached_property
    def classic_em(self) -> tuple[np.ndarray, np.ndarray]:
        """classic_em(self): (soft_labels, confusions), run once.
        Every reader gets the same arrays, which are read-only."""
        result = classic_em(self)
        for arr in result:
            arr.flags.writeable = False
        return result


# The bounds in check_confusions are negated >=/<= tests, so that a NaN
# fails them.
def check_confusions(confusions: np.ndarray) -> np.ndarray:
    """Validate an (m, K, K) stack of row-stochastic matrices."""
    conf = np.asarray(confusions, dtype=np.float64)
    if conf.ndim != 3 or conf.shape[1] != conf.shape[2]:
        raise ValueError(f"expected (m, K, K) confusion stack, got shape {conf.shape}")
    if not (conf.min() >= -ROW_SUM_TOL and conf.max() <= 1 + ROW_SUM_TOL):
        raise ValueError("confusion entries must lie in [0, 1]")
    if not np.abs(conf.sum(axis=2) - 1.0).max() <= ROW_SUM_TOL:
        raise ValueError("confusion rows must sum to 1")
    return conf


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


def posterior(ann: AnnotationSet, confusions: np.ndarray, *,
              check: bool = True) -> np.ndarray:
    """Posterior distribution of each true label given its annotations,
    under a uniform class prior.

    Row i is proportional to prod_j conf[w_ij, k, z_ij] over the
    annotations (w_ij, z_ij) of example i, normalized over k. The
    product is accumulated in log space, from log(1 / K), so long
    annotation lists cannot underflow. Confusion entries are first
    clipped to [CONFUSION_CLAMP, 1 - CONFUSION_CLAMP] and each row
    renormalised, so every row of the result is finite.

    The stack goes through check_confusions first. check=False skips
    that, for a float64 (m, K, K) stack the caller built row-stochastic
    itself; dawid_skene_update is the one caller that passes it. A
    keyword, rather than a private unchecked body that
    dawid_skene_update would call, keeps every posterior call on this
    public name, which is where the benchmark tracer (perfbench/spans.py)
    counts classic EM's iterations and the posterior's records.
    """
    conf = check_confusions(confusions) if check else confusions
    if conf.shape[0] < ann.m or conf.shape[1] != ann.K:
        raise ValueError("confusion stack does not cover this annotation set")
    # np.clip returns a fresh array, so renormalising and logging it in
    # place leaves the caller's stack alone.
    conf = np.clip(conf, CONFUSION_CLAMP, 1.0 - CONFUSION_CLAMP)
    conf /= conf.sum(axis=-1, keepdims=True)

    # Row w * K + z of the table is log conf[w, :, z].
    table = np.log(conf, out=conf).transpose(0, 2, 1).reshape(-1, ann.K)
    del conf   # free the clipped stack: for K > 1, table is a copy
    rows = np.full((ann.n, ann.K), np.log(1.0 / ann.K))
    for ex, wz in ann._layers:
        rows[ex] += np.take(table, wz, axis=0)
    # the max over the short class axis as K column maxima: same bits, faster
    rows -= reduce(np.maximum, rows.T)[:, None]
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def estimate_confusions_and_prior(ann: AnnotationSet, t: np.ndarray,
                                  smoothing: float):
    """Maximum-likelihood confusion matrices and class prior against hard labels t.

    conf[a, k, s] = (#{worker a labelled s where t=k} + smoothing)
                  / (#{worker a annotations where t=k} + K * smoothing)
    prior[k]      = fraction of t equal to k.

    A row whose denominator is 0 (possible only at smoothing=0, for a
    worker class with no annotations) is returned uniform and flagged
    with a RuntimeWarning. Workers never seen in ann get all-uniform
    matrices.
    """
    t = np.asarray(t, dtype=np.int64)
    if t.shape != (ann.n,):
        raise ValueError("t must supply one hard label per example")
    if ann.n and (t.min() < 0 or t.max() >= ann.K):
        raise ValueError("hard labels out of range")
    if not smoothing >= 0:
        raise ValueError("smoothing must be nonnegative")

    K = ann.K
    # Flat (worker, true class) row of each record; its counts are the
    # row totals of num, exactly, as integers.
    rows = ann.worker_ids * K + t[ann.example_ids]
    num = np.bincount(rows * K + ann.labels,
                      minlength=ann.m * K * K).reshape(ann.m, K, K).astype(np.float64)
    den = (np.bincount(rows, minlength=ann.m * K).reshape(ann.m, K)
           + K * smoothing)
    num += smoothing
    with np.errstate(invalid="ignore"):
        conf = num / den[:, :, None]
    empty = den == 0
    if empty.any():
        conf[empty] = 1.0 / K
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
def dawid_skene_update(ann: AnnotationSet, t: np.ndarray, smoothing: float):
    """One Dawid-Skene update against hard labels t: estimate the
    confusions, then recompute the label posterior with a uniform class
    prior. Returns (posterior, confusions). The estimate is row-stochastic
    by construction, so the posterior skips check_confusions on it."""
    conf, _ = estimate_confusions_and_prior(ann, t, smoothing=smoothing)
    return posterior(ann, conf, check=False), conf


def classic_em(ann: AnnotationSet):
    """Model-free Dawid-Skene EM over the annotations alone.

    Starts from the majority vote, ann.majority_vote, then repeats
    dawid_skene_update on the current argmax labels, unsmoothed and with
    a uniform prior. An
    update depends on the labels alone, so once a round's argmax labels
    equal the labels that produced it, every later round would repeat it
    bit for bit: the loop stops there, or after EM_MAX_ITERS rounds.
    Returns (soft_labels, confusions) from the final round.
    Callers that share one set read ann.classic_em, which runs this once.

    With one label per example this degenerates as expected: every
    worker's visited confusion rows come out exactly diagonal, i.e. the
    procedure believes all workers are perfect.
    """
    t = hard_labels(ann.majority_vote)
    for _ in range(EM_MAX_ITERS):
        soft = conf = None   # free the previous round's result first
        soft, conf = dawid_skene_update(ann, t, EM_SMOOTHING)
        new_t = hard_labels(soft)
        if np.array_equal(new_t, t):
            break
        t = new_t
    return soft, conf
