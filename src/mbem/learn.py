"""Probabilistic classifiers trained on posterior-weighted labels.

The training objective is the expected cross-entropy under each example's
soft label row,

    mean_i  sum_k soft[i, k] * (-log p_k(x_i))  +  l2/2 * ||params||^2,

minimized by plain mini-batch gradient descent with a fixed step size.
The deliberately simple optimizer keeps runs bit-reproducible and makes
the analytic gradients easy to verify against finite differences
(gradient_check). Two hypothesis classes are provided: multinomial
logistic regression and a one-hidden-layer tanh MLP.

With one-hot soft labels the objective reduces to the ordinary
cross-entropy, so every baseline that aggregates to hard labels trains
through the same code path.

The kernel is class-major: fit transposes the features and soft labels
once, to (d, n) and (K, n), and every forward pass computes the scores
as W @ XT + b with shape (K, n), one column per example. The softmax then
reduces over axis 0, in place, which adds K long contiguous rows instead
of reducing n short rows of K entries each; with few classes that
row-wise max/sum, not the matmul, took most of a step. The gradient
follows from the (K, n) residual, and a mini-batch gathers columns.
predict_proba still returns the usual (n, K) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import as_seed

__all__ = [
    "LearnerConfig",
    "TrainedModel",
    "weighted_loss",
    "fit",
    "predict_proba",
    "gradient_check",
    "zero_one_risk",
]

LEARNER_KINDS = ("multinomial_logistic", "one_hidden_layer_mlp")
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LearnerConfig:
    learner_kind: str = "multinomial_logistic"
    l2_penalty: float = 1e-4
    learning_rate: float = 0.1
    epochs: int = 300
    batch_size: int = 0          # 0 means full batch
    hidden_units: int = 32       # MLP only
    init_scale: float = 0.01

    def __post_init__(self):
        if self.learner_kind not in LEARNER_KINDS:
            raise ValueError(f"learner_kind must be one of {LEARNER_KINDS}")
        # Each bound is a negated test, so that NaN fails it too.
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.epochs >= 1:
            raise ValueError("epochs must be at least 1")
        if not self.l2_penalty >= 0:
            raise ValueError("l2_penalty must be nonnegative")
        if not self.batch_size >= 0:
            raise ValueError("batch_size must be nonnegative "
                             "(0 means full batch)")
        if (self.learner_kind == "one_hidden_layer_mlp"
                and not self.hidden_units >= 1):
            raise ValueError("hidden_units must be at least 1")
        if not np.isfinite(self.init_scale):
            raise ValueError("init_scale must be finite")


@dataclass(eq=False)
class TrainedModel:
    parameters: np.ndarray
    learner_kind: str
    K: int
    d: int
    hidden_units: int = 0


def param_count(cfg: LearnerConfig, d: int, K: int) -> int:
    if cfg.learner_kind == "multinomial_logistic":
        return K * d + K
    H = cfg.hidden_units
    return H * d + H + K * H + K


def _forward(params, XT, kind, K, H):
    """Class probabilities (K, n) and the tanh hidden layer (H, n), or
    None for the logistic model, of the examples in the columns of XT."""
    d = XT.shape[0]
    if kind == "multinomial_logistic":
        W = params[: K * d].reshape(K, d)
        scores, hidden = W @ XT, None
        scores += params[K * d:, None]
    else:
        W1 = params[: H * d].reshape(H, d)
        W2 = params[H * d + H: H * d + H + K * H].reshape(K, H)
        hidden = W1 @ XT
        hidden += params[H * d: H * d + H, None]
        np.tanh(hidden, out=hidden)
        scores = W2 @ hidden
        scores += params[H * d + H + K * H:, None]
    # Softmax over the class axis, in place.
    scores -= scores.max(axis=0)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=0)
    return scores, hidden


def _objective(params, XT, ST, cfg, K):
    probs, _ = _forward(params, XT, cfg.learner_kind, K, cfg.hidden_units)
    return (weighted_loss(probs.T, ST.T)
            + 0.5 * cfg.l2_penalty * float(params @ params))


def _gradient(params, XT, ST, cfg, K):
    """Gradient of _objective at params for examples in the columns of
    XT (d, n) with soft labels in the columns of ST (K, n)."""
    d, n = XT.shape
    kind, H = cfg.learner_kind, cfg.hidden_units
    G, hidden = _forward(params, XT, kind, K, H)
    G -= ST
    G /= n
    if kind == "multinomial_logistic":
        grad = np.concatenate([(G @ XT.T).ravel(), G.sum(axis=1)])
    else:
        W2 = params[H * d + H: H * d + H + K * H].reshape(K, H)
        Gh = W2.T @ G
        Gh *= 1.0 - hidden * hidden
        grad = np.concatenate([(Gh @ XT.T).ravel(), Gh.sum(axis=1),
                               (G @ hidden.T).ravel(), G.sum(axis=1)])
    grad += cfg.l2_penalty * params
    return grad


def _init_params(cfg, d, K, rng):
    return cfg.init_scale * rng.standard_normal(param_count(cfg, d, K))


def weighted_loss(predicted_probs: np.ndarray, weights: np.ndarray) -> float:
    """Cross-entropy of predictions against soft labels: per row
    sum_k weights[k] * (-log predicted_probs[k]), with probabilities
    floored at 1e-12 before the log, averaged over the rows of (n, K)
    arrays. This is the training objective without its l2 term."""
    p = np.maximum(np.asarray(predicted_probs, dtype=np.float64), PROB_FLOOR)
    w = np.asarray(weights, dtype=np.float64)
    if p.shape != w.shape:
        raise ValueError("predictions and weights must have the same shape")
    return float(-(w * np.log(p)).sum(axis=-1).mean())


def fit(features: np.ndarray, soft: np.ndarray, cfg: LearnerConfig,
        seed) -> TrainedModel:
    """Train a model on soft labels by mini-batch gradient descent.

    Deterministic given (inputs, seed): initialization draws from the
    seed's "init" substream and per-epoch shuffles from its "shuffle"
    substream. batch_size=0 (or >= n) runs full-batch steps.

    Raises RuntimeError if the gradient turns non-finite mid-training.
    """
    X = np.asarray(features, dtype=np.float64)
    S = np.asarray(soft, dtype=np.float64)
    if X.ndim != 2 or S.ndim != 2 or X.shape[0] != S.shape[0]:
        raise ValueError("features and soft labels must align on examples")
    n, d = X.shape
    K = S.shape[1]
    XT, ST = np.ascontiguousarray(X.T), np.ascontiguousarray(S.T)
    seed = as_seed(seed)
    params = _init_params(cfg, d, K, seed.child("init").generator())
    shuffle_rng = seed.child("shuffle").generator()

    batch = cfg.batch_size if 0 < cfg.batch_size < n else n

    for epoch in range(cfg.epochs):
        if batch == n:
            batches = (slice(None),)   # a view of XT: no copy, no shuffle draw
        else:
            order = shuffle_rng.permutation(n)
            batches = (order[start:start + batch] for start in range(0, n, batch))
        for idx in batches:
            grad = _gradient(params, XT[:, idx], ST[:, idx], cfg, K)
            if not np.isfinite(grad).all():
                raise RuntimeError(
                    f"non-finite training gradient at epoch {epoch}; "
                    "reduce the learning rate or feature scale"
                )
            params = params - cfg.learning_rate * grad

    return TrainedModel(
        parameters=params,
        learner_kind=cfg.learner_kind,
        K=K,
        d=d,
        hidden_units=cfg.hidden_units if cfg.learner_kind == "one_hidden_layer_mlp" else 0,
    )


def predict_proba(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Row-stochastic (n, K) class probabilities, C-contiguous."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(
            f"features must be (n, {model.d}) for this model, got {X.shape}"
        )
    probs, _ = _forward(model.parameters, X.T, model.learner_kind, model.K,
                        model.hidden_units)
    return np.ascontiguousarray(probs.T)


def zero_one_risk(model: TrainedModel, features: np.ndarray,
                  truth: np.ndarray) -> float:
    """Fraction of argmax predictions that disagree with the true labels."""
    truth = np.asarray(truth, dtype=np.int64)
    preds = np.argmax(predict_proba(model, features), axis=1)
    return float(np.mean(preds != truth))


def gradient_check(cfg: LearnerConfig, features: np.ndarray, soft: np.ndarray,
                   seed, h: float = 1e-5) -> float:
    """Max deviation between analytic and central-difference gradients.

    Evaluated at a random parameter point drawn from the seed. The
    deviation is normalized by the largest gradient magnitude so the
    result reads as a relative error at the gradient's own scale.
    Intended for small instances (the finite-difference sweep is one
    objective pair per parameter).
    """
    X = np.asarray(features, dtype=np.float64)
    S = np.asarray(soft, dtype=np.float64)
    d, K = X.shape[1], S.shape[1]
    XT, ST = X.T, S.T
    rng = as_seed(seed).child("gradient-check").generator()
    params = _init_params(cfg, d, K, rng) + 0.1 * rng.standard_normal(
        param_count(cfg, d, K))

    analytic = _gradient(params, XT, ST, cfg, K)
    numeric = np.empty_like(analytic)
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = h
        numeric[i] = (_objective(params + step, XT, ST, cfg, K)
                      - _objective(params - step, XT, ST, cfg, K)) / (2 * h)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)
