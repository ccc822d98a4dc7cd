"""Training methods: the model-bootstrapped EM loop and all baselines.

run_mbem alternates two steps for MBEM_ROUNDS rounds: train the
classifier on the current soft labels, then re-estimate every worker's
confusion matrix by treating the model's argmax predictions as ground
truth and recompute the label posterior. Because the comparison is
against a model rather than against other annotations, worker quality is
identifiable even at redundancy one, where plain EM collapses to
believing every worker is perfect.

The baselines reproduce the standard alternatives: aggregate-then-train
on hard labels (majority vote or EM), posterior-weighted training with
weights from majority vote or EM, and two oracles that see the true
confusion matrices or the true labels. em and weighted-em read classic
EM from the AnnotationSet, which runs it once and keeps the result.

Every method takes one Unit: the features and annotations of a dataset,
the learner config, the seed every fit draws from, and the true labels
and worker confusions when they are known. A method fits through
Unit.fit, which returns the unit's earlier model for equal targets
instead of training it again, so the methods of one unit share their
fits: weighted-mv's model is MBEM's round-0 model, and at r=1 mv, em and
weighted-mv share it too. oracle-correct alone trains on a row subset
and calls fit directly, on columns gathered from the unit's copy.

What a unit's methods would otherwise each redo, the unit and its
AnnotationSet hold for as long as the unit lives: the unit's fits; the
learner's ClassMajor copy of its features (Unit.columns), which every
Unit.fit and MBEM's predict_proba read and from which oracle-correct
gathers its rows; and the set's majority vote and classic EM result,
which mv, weighted-mv, em, weighted-em and MBEM's start read. No copy
outlives its unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import AnnotationSet, dawid_skene_update, hard_labels, posterior
from .learn import (
    ClassMajor,
    LearnerConfig,
    TrainedModel,
    class_major,
    fit,
    predict_proba,
    weighted_loss,
)
from .seeding import RngSeed

__all__ = [
    "METHODS",
    "MethodResult",
    "MbemResult",
    "Unit",
    "train_method",
    "run_mbem",
    "run_weighted_baseline",
    "run_hard_baseline",
    "one_hot",
]

HARD_METHODS = ("mv", "em", "oracle-correct", "truth")
WEIGHTED_METHODS = ("weighted-mv", "weighted-em", "oracle-weighted-em")
METHODS = HARD_METHODS + WEIGHTED_METHODS + ("mbem",)
# The pseudo-count that MBEM adds to every confusion count (see
# core.estimate_confusions_and_prior).
MBEM_SMOOTHING = 1.0
# MBEM's number of fit-and-relabel rounds.
MBEM_ROUNDS = 2


@dataclass(eq=False)
class MethodResult:
    """A model, with its label posterior and confusions if it has them."""
    model: TrainedModel
    soft: np.ndarray | None
    confusions: np.ndarray | None


@dataclass(eq=False)
class MbemResult(MethodResult):
    per_round_train_risk: list[float]


def one_hot(labels: np.ndarray, K: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, K))
    out[np.arange(labels.size), labels] = 1.0
    return out


@dataclass(frozen=True, eq=False)
class Unit:
    """One dataset that methods train on. Every fit draws from seed;
    truth and oracle_confusions are None when unknown.

    A unit keeps, for its own life, its fits (see fit) and the ClassMajor
    copy of its features (columns). features, ann and truth must not be
    modified once the unit is in use."""
    features: np.ndarray
    ann: AnnotationSet
    cfg: LearnerConfig
    seed: RngSeed | int
    truth: np.ndarray | None = None
    oracle_confusions: np.ndarray | None = None
    # (targets, model) of each fit so far
    _memo: list = field(default_factory=list, init=False, repr=False)

    @cached_property
    def columns(self) -> ClassMajor:
        """The learner's ClassMajor copy of features, built on first use
        and read by every fit and prediction on the unit's examples."""
        return class_major(self.features)

    def fit(self, targets: np.ndarray) -> TrainedModel:
        """fit on the unit's features, or the model of an earlier fit on
        targets equal in shape and every value. A new model's parameters
        and its targets become read-only, since other methods share
        them."""
        for done, model in self._memo:
            if np.array_equal(done, targets):
                return model
        model = fit(self.columns, targets, self.cfg, self.seed)
        model.parameters.flags.writeable = False
        targets.flags.writeable = False
        self._memo.append((targets, model))
        return model


def run_mbem(unit: Unit) -> MbemResult:
    """Alternate posterior-weighted training with model-based confusion
    re-estimation for MBEM_ROUNDS rounds.

    The posterior starts at the per-example label frequencies,
    unit.ann.majority_vote. Each round then: (1) retrains the learner
    from scratch on the current soft labels, through unit.fit, so round 0
    fits weighted-mv's model; (2) takes the model's argmax predictions on
    the training examples as provisional truth; (3) re-estimates all
    confusion matrices against them, with MBEM_SMOOTHING added to every
    count, and recomputes the label posterior with a uniform class
    prior, in one dawid_skene_update. Artifacts of the final round are
    returned, together with each round's weighted_loss of the model on
    the soft labels it was trained on.
    """
    soft = unit.ann.majority_vote
    risks = []
    for _ in range(MBEM_ROUNDS):
        model = unit.fit(soft)
        probs = predict_proba(model, unit.columns)
        risks.append(weighted_loss(probs, soft))
        soft, conf = dawid_skene_update(unit.ann, hard_labels(probs),
                                        MBEM_SMOOTHING)
    return MbemResult(model=model, confusions=conf, soft=soft,
                      per_round_train_risk=risks)


def _label_posterior(unit: Unit, method: str, modes: tuple[str, ...]):
    """(soft, confusions or None) by majority vote or classic EM (both
    cached on unit.ann) or the unit's true confusion matrices; method
    must be one of modes."""
    if method not in modes:
        raise ValueError(f"mode must be one of {modes}, got {method!r}")
    if method in ("mv", "weighted-mv"):
        return unit.ann.majority_vote, None
    if method in ("em", "weighted-em"):
        return unit.ann.classic_em
    if unit.oracle_confusions is None:
        raise ValueError(f"{method} requires the true confusion matrices")
    return posterior(unit.ann, unit.oracle_confusions), None


def run_weighted_baseline(unit: Unit, mode: str) -> MethodResult:
    """One posterior-weighted fit, through unit.fit. weighted-mv weights
    by the raw label frequencies; weighted-em by the final posterior of
    classic EM; oracle-weighted-em by the posterior under the true
    confusion matrices with a uniform prior."""
    soft, conf = _label_posterior(unit, mode, WEIGHTED_METHODS)
    return MethodResult(model=unit.fit(soft), soft=soft, confusions=conf)


def correctly_labeled_mask(ann: AnnotationSet, truth: np.ndarray) -> np.ndarray:
    """Boolean mask of examples where at least one annotation hits the truth."""
    truth = np.asarray(truth, dtype=np.int64)
    hit = np.zeros(ann.n, dtype=bool)
    hit_records = ann.labels == truth[ann.example_ids]
    hit[ann.example_ids[hit_records]] = True
    return hit


def run_hard_baseline(unit: Unit, mode: str) -> MethodResult:
    """Aggregate-then-train baselines.

    mv/em aggregate the annotations to one label per example and train
    on the resulting one-hot targets. truth trains on the true labels;
    oracle-correct does too, restricted to examples where at least one
    annotation matches the truth, and fails if no example survives.
    Both require the unit's truth. oracle-correct fits its rows, gathered
    from unit.columns, with the unit's cfg and seed directly; the others
    fit through unit.fit.
    """
    soft = conf = None
    if mode in ("oracle-correct", "truth"):
        if unit.truth is None:
            raise ValueError(f"{mode} requires the true labels")
        labels = np.asarray(unit.truth, dtype=np.int64)
        if mode == "oracle-correct":
            rows = correctly_labeled_mask(unit.ann, labels)
            if not rows.any():
                raise ValueError("no example has a correct annotation; "
                                 "nothing to train on")
            model = fit(unit.columns.subset(np.flatnonzero(rows)),
                        one_hot(labels[rows], unit.ann.K), unit.cfg, unit.seed)
            return MethodResult(model=model, soft=None, confusions=None)
    else:
        soft, conf = _label_posterior(unit, mode, HARD_METHODS)
        labels = hard_labels(soft)
    model = unit.fit(one_hot(labels, unit.ann.K))
    return MethodResult(model=model, soft=soft, confusions=conf)


def train_method(method: str, unit: Unit) -> MethodResult:
    """Train one of METHODS on unit for the CLI or the sweep harness; a
    method that needs the unit's truth or oracle_confusions raises
    ValueError without it. Calls on one unit share its fits (see
    Unit.fit) and its ann's classic EM result."""
    if method in HARD_METHODS:
        return run_hard_baseline(unit, method)
    if method in WEIGHTED_METHODS:
        return run_weighted_baseline(unit, method)
    if method == "mbem":
        return run_mbem(unit)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
