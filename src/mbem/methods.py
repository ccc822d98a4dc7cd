"""Training methods: the model-bootstrapped EM loop and all baselines.

run_mbem alternates two steps for a fixed number of rounds: train the
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
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .core import (
    PRIOR_MODES,
    AnnotationSet,
    dawid_skene_update,
    hard_labels,
    majority_vote_init,
    posterior,
    uniform_prior,
)
from .learn import LearnerConfig, TrainedModel, fit, predict_proba, weighted_loss
from .seeding import as_seed

__all__ = [
    "METHODS",
    "MbemConfig",
    "MethodResult",
    "MbemResult",
    "config_from",
    "train_method",
    "run_mbem",
    "run_weighted_baseline",
    "run_hard_baseline",
    "one_hot",
]

HARD_METHODS = ("mv", "em", "oracle-correct", "truth")
WEIGHTED_METHODS = ("weighted-mv", "weighted-em", "oracle-weighted-em")
METHODS = HARD_METHODS + WEIGHTED_METHODS + ("mbem",)


@dataclass(frozen=True)
class MbemConfig:
    rounds: int = 2
    prior_mode: str = "uniform"     # one of core.PRIOR_MODES
    smoothing: float = 1.0
    learner: LearnerConfig = field(default_factory=LearnerConfig)

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.prior_mode not in PRIOR_MODES:
            raise ValueError(f"unknown prior_mode {self.prior_mode!r}")
        if self.smoothing < 0:
            raise ValueError("smoothing must be nonnegative")


def config_from(cls, values: Mapping, **given):
    """A MbemConfig or LearnerConfig from the field values given, coerced
    to the fields' types; omitted fields keep their defaults."""
    # Each field with a plain default takes that default's type.
    types = {f.name: type(f.default) for f in fields(cls)
             if f.default is not MISSING}
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} field(s) {unknown}")
    return cls(**{k: types[k](v) for k, v in values.items()}, **given)


@dataclass(eq=False)
class MethodResult:
    """A model, with its label posterior and confusions if it has them."""
    model: TrainedModel
    soft: np.ndarray | None
    confusions: np.ndarray | None


@dataclass(eq=False)
class MbemResult(MethodResult):
    prior: np.ndarray
    per_round_train_risk: list[float]


def one_hot(labels: np.ndarray, K: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, K))
    out[np.arange(labels.size), labels] = 1.0
    return out


def run_mbem(features: np.ndarray, ann: AnnotationSet, cfg: MbemConfig,
             seed) -> MbemResult:
    """Alternate posterior-weighted training with model-based confusion
    re-estimation for cfg.rounds rounds.

    The posterior starts at the per-example label frequencies. Each
    round then: (1) retrains the learner from scratch on the current
    soft labels, using substream seed.child("round", t); (2) takes the
    model's argmax predictions on the training examples as provisional
    truth; (3) re-estimates all confusion matrices and the class prior
    against them and recomputes the label posterior, in one
    core.dawid_skene_update. Artifacts of the final round are returned,
    together with each round's weighted_loss of the model on the soft
    labels it was trained on.
    """
    seed = as_seed(seed)
    soft = majority_vote_init(ann)
    risks = []
    for t in range(cfg.rounds):
        try:
            model = fit(features, soft, cfg.learner, seed.child("round", t))
        except Exception as exc:
            raise RuntimeError(f"learner failed in round {t}: {exc}") from exc
        probs = predict_proba(model, features)
        risks.append(weighted_loss(probs, soft))
        soft, conf, prior = dawid_skene_update(ann, hard_labels(probs),
                                               cfg.smoothing, cfg.prior_mode)
    return MbemResult(model=model, confusions=conf, prior=prior, soft=soft,
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
        return ann.classic_em[:2]
    if oracle_confusions is None:
        raise ValueError(f"{method} requires the true confusion matrices")
    return posterior(ann, oracle_confusions, uniform_prior(ann.K)), None


def run_weighted_baseline(features: np.ndarray, ann: AnnotationSet, mode: str,
                          cfg: MbemConfig, seed, *,
                          oracle_confusions: np.ndarray | None = None) -> MethodResult:
    """One posterior-weighted fit. weighted-mv weights by the raw label
    frequencies; weighted-em by the final posterior of classic EM;
    oracle-weighted-em by the posterior under the true confusion
    matrices with a uniform prior.

    The fit draws from substream seed.child("fit")."""
    soft, conf = _label_posterior(ann, mode, WEIGHTED_METHODS,
                                  oracle_confusions)
    model = fit(features, soft, cfg.learner, as_seed(seed).child("fit"))
    return MethodResult(model=model, soft=soft, confusions=conf)


def correctly_labeled_mask(ann: AnnotationSet, truth: np.ndarray) -> np.ndarray:
    """Boolean mask of examples where at least one annotation hits the truth."""
    truth = np.asarray(truth, dtype=np.int64)
    hit = np.zeros(ann.n, dtype=bool)
    hit_records = ann.labels == truth[ann.example_ids]
    hit[ann.example_ids[hit_records]] = True
    return hit


def run_hard_baseline(features: np.ndarray, ann: AnnotationSet, mode: str,
                      cfg: MbemConfig, seed, *,
                      truth: np.ndarray | None = None) -> MethodResult:
    """Aggregate-then-train baselines.

    mv/em aggregate the annotations to one label per example and train
    on the resulting one-hot targets. truth trains on the true labels;
    oracle-correct does too, restricted to examples where at least one
    annotation matches the truth, and fails if no example survives.
    Both require truth.
    """
    X = np.asarray(features, dtype=np.float64)
    soft = conf = None
    if mode in ("oracle-correct", "truth"):
        if truth is None:
            raise ValueError(f"{mode} requires the true labels")
        labels = np.asarray(truth, dtype=np.int64)
        if mode == "oracle-correct":
            hit = correctly_labeled_mask(ann, labels)
            if not hit.any():
                raise ValueError("no example has a correct annotation; "
                                 "nothing to train on")
            X, labels = X[hit], labels[hit]
    else:
        soft, conf = _label_posterior(ann, mode, HARD_METHODS)
        labels = hard_labels(soft)
    model = fit(X, one_hot(labels, ann.K), cfg.learner,
                as_seed(seed).child("fit"))
    return MethodResult(model=model, soft=soft, confusions=conf)


def train_method(method: str, features: np.ndarray, ann: AnnotationSet,
                 cfg: MbemConfig, seed, *, truth: np.ndarray | None = None,
                 oracle_confusions: np.ndarray | None = None) -> MethodResult:
    """Train one of METHODS for the CLI or the sweep harness; a method
    that needs truth or oracle_confusions raises ValueError without it.
    Calls on one ann share its classic EM result."""
    if method in HARD_METHODS:
        return run_hard_baseline(features, ann, method, cfg, seed, truth=truth)
    if method in WEIGHTED_METHODS:
        return run_weighted_baseline(features, ann, method, cfg, seed,
                                     oracle_confusions=oracle_confusions)
    if method == "mbem":
        return run_mbem(features, ann, cfg, seed)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
