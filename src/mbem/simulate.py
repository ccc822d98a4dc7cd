"""Synthetic crowdsourcing: worker pools, assignments, and label corruption.

Two worker skill models are supported. "hammer_spammer" makes each worker
either perfectly accurate (identity confusion matrix, probability gamma)
or a uniform guesser (all entries 1/K). "classwise_hammer_spammer" applies
the same coin per row, so a worker can be reliable on some classes and
random on the rest.

The feature generator is a deliberately simple stand-in for real image
data: class centroids are scaled one-hot vectors plus unit Gaussian noise,
which is linearly separable in expectation once the margin scale is a few
noise standard deviations.

A Scenario fixes everything about the simulated data but its size. Its
defaults are those of `mbem simulate` and of a synthetic sweep, and both
draw a sweep unit's training data through simulate_unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AnnotationSet, check_confusions
from .seeding import as_seed

__all__ = [
    "WorkerSkillModel",
    "Scenario",
    "simulate_unit",
    "sample_worker_pool",
    "assign_workers",
    "corrupt_labels",
    "make_synthetic_dataset",
    "subsample_redundancy",
]

SKILL_KINDS = ("hammer_spammer", "classwise_hammer_spammer")


@dataclass(frozen=True)
class WorkerSkillModel:
    """Distribution over worker confusion matrices."""

    kind: str = "hammer_spammer"
    gamma: float = 0.2
    K: int = 2

    def __post_init__(self):
        if self.kind not in SKILL_KINDS:
            raise ValueError(f"kind must be one of {SKILL_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.K < 2:
            raise ValueError("need at least two classes")


@dataclass(frozen=True)
class Scenario:
    """A simulated crowdsourcing scenario: a pool of m workers drawn from
    skill, and features of dimension d (None: 2 * skill.K) around class
    centroids that are margin times a one-hot vector."""

    skill: WorkerSkillModel = WorkerSkillModel()
    d: int | None = None
    margin: float = 6.0
    m: int = 100

    def __post_init__(self):
        # Each bound is a negated test, so that NaN fails it.
        if not np.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {self.margin}")
        if not self.m >= 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if self.d is not None and not self.d >= self.skill.K:
            raise ValueError(f"feature_dim must be at least classes "
                             f"({self.skill.K}), got {self.d}")


def simulate_unit(scenario: Scenario, n: int, r: int, seed):
    """The training data of sweep unit (r, seed): n examples with r labels
    each from the scenario's pool, as (features, truth, annotations, the
    pool's (m, K, K) confusion matrices).

    The examples draw from the ("train-data", r) stream of seed, the pool
    from "workers", the assignment from ("assign", r) and the labels from
    ("corrupt", r), so every r of a seed shares one pool.
    """
    root = as_seed(seed)
    X, y = make_synthetic_dataset(n, scenario.skill.K, scenario.d,
                                  scenario.margin, root.child("train-data", r))
    confusions = sample_worker_pool(scenario.skill, scenario.m,
                                    root.child("workers"))
    assignment = assign_workers(n, r, scenario.m, root.child("assign", r))
    ann = corrupt_labels(y, assignment, confusions, root.child("corrupt", r))
    return X, y, ann, confusions


def sample_worker_pool(model: WorkerSkillModel, m: int, seed) -> np.ndarray:
    """Draw m confusion matrices from the skill model. Returns (m, K, K)."""
    if m < 1:
        raise ValueError("need at least one worker")
    rng = as_seed(seed).child("worker-pool").generator()
    K = model.K
    # One coin per worker, or one per row of each worker's matrix.
    coins = 1 if model.kind == "hammer_spammer" else K
    is_hammer = rng.random((m, coins)) < model.gamma
    return np.where(is_hammer[:, :, None], np.eye(K), np.full((K, K), 1.0 / K))


def assign_workers(n: int, r: int, m: int, seed) -> np.ndarray:
    """(n, r) table of worker ids drawn i.i.d. uniform with replacement.

    Assignment is independent of features and labels; a worker may appear
    more than once on the same example.
    """
    if min(n, r, m) < 1:
        raise ValueError("n, r, m must all be at least 1")
    rng = as_seed(seed).child("assignment").generator()
    return rng.integers(0, m, size=(n, r), dtype=np.int64)


def corrupt_labels(truth: np.ndarray, assignment: np.ndarray,
                   confusions: np.ndarray, seed) -> AnnotationSet:
    """Draw each annotation from row truth[i] of its worker's confusion matrix."""
    truth = np.asarray(truth, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    conf = check_confusions(confusions)
    n, r = assignment.shape
    if truth.shape != (n,):
        raise ValueError("truth must supply one label per assigned example")
    m, K, _ = conf.shape
    if assignment.size and assignment.max() >= m:
        raise ValueError("assignment references workers beyond the pool")
    outside = (truth < 0) | (truth >= K)
    if outside.any():
        i = int(outside.argmax())
        raise ValueError(f"example {i} has true label {truth[i]}, outside "
                         f"[0, {K})")

    rng = as_seed(seed).child("corrupt").generator()
    cdf = np.cumsum(conf, axis=2)[assignment, truth[:, None]]   # (n, r, K)
    u = rng.random((n, r, 1))
    labels = np.minimum((u > cdf).sum(axis=2), K - 1)
    return AnnotationSet.from_tables(assignment, labels, m=m, K=K)


def make_synthetic_dataset(n: int, K: int, d: int | None, margin: float, seed):
    """Class-balanced features/labels: scaled one-hot centroids plus unit noise.

    Returns (features (n, d) float array, truth (n,) int array); d=None
    means 2 * K. Class counts differ by at most one. margin=0 gives pure noise.
    """
    d = 2 * K if d is None else d
    if d < K:
        raise ValueError("feature dimension must be at least the class count")
    if n < 1:
        raise ValueError("need at least one example")
    if not np.isfinite(margin):
        raise ValueError("margin must be finite")
    rng = as_seed(seed).child("dataset").generator()
    truth = np.arange(n, dtype=np.int64) % K
    truth = truth[rng.permutation(n)]
    features = rng.standard_normal((n, d))
    features[np.arange(n), truth] += margin
    return features, truth


def subsample_redundancy(ann: AnnotationSet, examples: np.ndarray, r: int,
                         seed) -> AnnotationSet:
    """The given examples of ann (distinct indices in [0, ann.n)), numbered
    0..len-1 in their order, each keeping r of its annotations chosen
    uniformly without replacement: a budget sweep's cut of an annotation file.

    Every record of those examples draws one 32-bit key from the
    ("subsample", r) stream of seed, in record order, and each example
    keeps the r records with the smallest keys (on a repeated key, the
    earlier record), in their original order. The ValueError for an
    example with fewer than r annotations names it by its index in ann,
    which is the file's example_id.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    examples = np.asarray(examples, dtype=np.int64)
    outside = examples[(examples < 0) | (examples >= ann.n)]
    if outside.size:
        raise ValueError(f"example index {outside[0]} outside [0, {ann.n})")
    remap = np.full(ann.n, -1, dtype=np.int64)
    remap[examples] = np.arange(examples.size)
    repeated = examples[remap[examples] != np.arange(examples.size)]
    if repeated.size:
        raise ValueError(f"example index {repeated[0]} given more than once")
    ids = remap[ann.example_ids]
    records = np.flatnonzero(ids >= 0)
    ids = ids[records]
    counts = np.bincount(ids, minlength=examples.size)
    short = np.flatnonzero(counts < r)
    if short.size:
        raise ValueError(f"example {examples[short[0]]} has fewer than {r} annotations")
    rng = as_seed(seed).child("subsample", r).generator()

    # Exact integer keys, example in the high bits: examples never
    # interleave, and a stable sort settles repeated draws by record order.
    keys = (ids << 32) | rng.integers(0, 1 << 32, ids.size, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    starts = np.cumsum(counts) - counts
    rank = np.arange(ids.size) - np.repeat(starts, counts)
    keep = np.sort(order[rank < r])
    kept = records[keep]
    return AnnotationSet(n=examples.size, m=ann.m, K=ann.K,
                         example_ids=ids[keep], worker_ids=ann.worker_ids[kept],
                         labels=ann.labels[kept])
