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

Every fit goes through _fit with the seed it is given, whatever the
method or MBEM round, so two fits on the same features and targets give
the same model. The sweep passes each method of an (r, seed) unit the
same seed and one list of the unit's fits, and _fit returns a model from
that list instead of training it again: weighted-mv's model is MBEM's
round-0 model, and at r=1 mv, em and weighted-mv share it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AnnotationSet,
    dawid_skene_update,
    hard_labels,
    majority_vote_init,
    posterior,
)
from .learn import LearnerConfig, TrainedModel, fit, predict_proba, weighted_loss
from .seeding import RngSeed, as_seed

__all__ = [
    "METHODS",
    "MethodResult",
    "MbemResult",
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


@dataclass(eq=False)
class _Fit:
    """One fit of a unit: what it trained on, and the model."""
    features: object
    cfg: LearnerConfig
    seed: RngSeed
    targets: np.ndarray
    model: TrainedModel


def _fit(features, targets: np.ndarray, cfg: LearnerConfig, seed,
         fits: list[_Fit] | None) -> TrainedModel:
    """learn.fit on features and targets.

    fits, if not None, holds the earlier fits of one unit. A fit there
    on the same features object, cfg and seed, with targets equal in
    shape and every value, gives its model instead of training again; a
    new fit is added to it. The model parameters and the targets of
    every fit in fits are read-only, since other methods share them."""
    seed = as_seed(seed)
    for done in fits or ():
        if (done.features is features and done.cfg == cfg and done.seed == seed
                and np.array_equal(done.targets, targets)):
            return done.model
    model = fit(features, targets, cfg, seed)
    if fits is not None:
        model.parameters.flags.writeable = False
        targets.flags.writeable = False
        fits.append(_Fit(features, cfg, seed, targets, model))
    return model


def run_mbem(features: np.ndarray, ann: AnnotationSet, cfg: LearnerConfig,
             seed, fits: list[_Fit] | None = None) -> MbemResult:
    """Alternate posterior-weighted training with model-based confusion
    re-estimation for MBEM_ROUNDS rounds.

    The posterior starts at the per-example label frequencies. Each
    round then: (1) retrains the learner from scratch on the current
    soft labels, with every round's fit drawing from seed itself, so
    round 0 fits weighted-mv's model; (2) takes the model's argmax
    predictions on the training examples as provisional truth; (3)
    re-estimates all confusion matrices against them, with
    MBEM_SMOOTHING added to every count, and recomputes the label
    posterior with a uniform class prior, in one dawid_skene_update.
    Artifacts of the final round are returned, together with each
    round's weighted_loss of the model on the soft labels it was trained
    on. fits is as in _fit.
    """
    soft = majority_vote_init(ann)
    risks = []
    for _ in range(MBEM_ROUNDS):
        model = _fit(features, soft, cfg, seed, fits)
        probs = predict_proba(model, features)
        risks.append(weighted_loss(probs, soft))
        soft, conf = dawid_skene_update(ann, hard_labels(probs),
                                        MBEM_SMOOTHING)
    return MbemResult(model=model, confusions=conf, soft=soft,
                      per_round_train_risk=risks)


def _label_posterior(ann: AnnotationSet, method: str, modes: tuple[str, ...],
                     oracle_confusions: np.ndarray | None = None):
    """(soft, confusions or None) by majority vote, classic EM (cached on
    ann) or the true confusion matrices; method must be one of modes."""
    if method not in modes:
        raise ValueError(f"mode must be one of {modes}, got {method!r}")
    if method in ("mv", "weighted-mv"):
        return majority_vote_init(ann), None
    if method in ("em", "weighted-em"):
        return ann.classic_em
    if oracle_confusions is None:
        raise ValueError(f"{method} requires the true confusion matrices")
    return posterior(ann, oracle_confusions), None


def run_weighted_baseline(features: np.ndarray, ann: AnnotationSet, mode: str,
                          cfg: LearnerConfig, seed, *,
                          oracle_confusions: np.ndarray | None = None,
                          fits: list[_Fit] | None = None) -> MethodResult:
    """One posterior-weighted fit. weighted-mv weights by the raw label
    frequencies; weighted-em by the final posterior of classic EM;
    oracle-weighted-em by the posterior under the true confusion
    matrices with a uniform prior.

    The fit draws from seed itself; fits is as in _fit."""
    soft, conf = _label_posterior(ann, mode, WEIGHTED_METHODS,
                                  oracle_confusions)
    model = _fit(features, soft, cfg, seed, fits)
    return MethodResult(model=model, soft=soft, confusions=conf)


def correctly_labeled_mask(ann: AnnotationSet, truth: np.ndarray) -> np.ndarray:
    """Boolean mask of examples where at least one annotation hits the truth."""
    truth = np.asarray(truth, dtype=np.int64)
    hit = np.zeros(ann.n, dtype=bool)
    hit_records = ann.labels == truth[ann.example_ids]
    hit[ann.example_ids[hit_records]] = True
    return hit


def run_hard_baseline(features: np.ndarray, ann: AnnotationSet, mode: str,
                      cfg: LearnerConfig, seed, *,
                      truth: np.ndarray | None = None,
                      fits: list[_Fit] | None = None) -> MethodResult:
    """Aggregate-then-train baselines.

    mv/em aggregate the annotations to one label per example and train
    on the resulting one-hot targets. truth trains on the true labels;
    oracle-correct does too, restricted to examples where at least one
    annotation matches the truth, and fails if no example survives.
    Both require truth. The fit draws from seed itself; fits is as in
    _fit.
    """
    soft = conf = None
    if mode in ("oracle-correct", "truth"):
        if truth is None:
            raise ValueError(f"{mode} requires the true labels")
        labels = np.asarray(truth, dtype=np.int64)
        if mode == "oracle-correct":
            rows = correctly_labeled_mask(ann, labels)
            if not rows.any():
                raise ValueError("no example has a correct annotation; "
                                 "nothing to train on")
            features = np.asarray(features, dtype=np.float64)[rows]
            labels = labels[rows]
    else:
        soft, conf = _label_posterior(ann, mode, HARD_METHODS)
        labels = hard_labels(soft)
    model = _fit(features, one_hot(labels, ann.K), cfg, seed, fits)
    return MethodResult(model=model, soft=soft, confusions=conf)


def train_method(method: str, features: np.ndarray, ann: AnnotationSet,
                 cfg: LearnerConfig, seed, *, truth: np.ndarray | None = None,
                 oracle_confusions: np.ndarray | None = None,
                 fits: list[_Fit] | None = None) -> MethodResult:
    """Train one of METHODS for the CLI or the sweep harness; a method
    that needs truth or oracle_confusions raises ValueError without it.
    Calls on one ann share its classic EM result, and calls given one
    fits list share their fits (see _fit)."""
    if method in HARD_METHODS:
        return run_hard_baseline(features, ann, method, cfg, seed, truth=truth,
                                 fits=fits)
    if method in WEIGHTED_METHODS:
        return run_weighted_baseline(features, ann, method, cfg, seed,
                                     oracle_confusions=oracle_confusions,
                                     fits=fits)
    if method == "mbem":
        return run_mbem(features, ann, cfg, seed, fits)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
