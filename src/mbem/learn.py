"""Probabilistic classifiers trained on posterior-weighted labels.

The training objective is the expected cross-entropy under each example's
soft label row,

    mean_i  sum_k soft[i, k] * (-log p_k(x_i))  +  l2/2 * ||params||^2,

with the fixed weight l2 = L2_PENALTY, minimized by plain mini-batch
gradient descent with a fixed step size.
The deliberately simple optimizer keeps runs bit-reproducible and makes
the analytic gradients easy to verify against finite differences
(gradient_check). Two hypothesis classes are provided: multinomial
logistic regression and a one-hidden-layer tanh MLP.

With one-hot soft labels the objective reduces to the ordinary
cross-entropy, so every baseline that aggregates to hard labels trains
through the same code path.

The kernel is class-major: it reads the features as a (d + 1, n)
ClassMajor copy XA, one column per example with a row of ones appended,
and fit transposes the soft labels once, to (K, n). Every forward pass
computes the scores as W @ XA with shape (K, n), one column per
example. The softmax then reduces over axis 0, in place, which adds K
long contiguous rows instead of reducing n short rows of K entries
each; with few classes that row-wise max/sum, not the matmul, took most
of a step. Each layer is one (out, in + 1) matrix whose last column is
its bias, which meets the ones row, so a layer is one matmul with no
bias add. The MLP writes tanh into the
first H rows of an (H + 1, n) hidden layer whose last row is ones, the
next layer's input. A layer's gradient, weights and bias together, is
its (out, n) residual times the transpose of its input, and the 1/n of
the mean is applied to that small (out, in + 1) gradient, not to the
residual. A mini-batch gathers columns. TrainedModel keeps the flat
[W, b] or [W1, b1, W2, b2] parameters, which fit, predict_proba and
gradient_check convert, and predict_proba still returns the usual
(n, K) rows.

class_major builds the read-only ClassMajor copy of an (n, d) feature
array, and ClassMajor.subset gathers some of its columns. fit,
predict_proba and zero_one_risk take either the array or the copy, with
the same result to the bit; given the (n, d) array, each builds a copy
for that call alone. Every caller in the package passes a copy it
keeps: methods.Unit builds one of its training features
(Unit.columns), which every fit and prediction of the unit reads, and
oracle-correct's row subset is gathered from it; the sweep harness
builds one of each unit's test features. The (n, d) form is the one
for tests and interactive use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import as_seed

__all__ = [
    "LearnerConfig",
    "TrainedModel",
    "ClassMajor",
    "class_major",
    "weighted_loss",
    "fit",
    "predict_proba",
    "gradient_check",
    "zero_one_risk",
]

LEARNER_KINDS = ("multinomial_logistic", "one_hidden_layer_mlp")
PROB_FLOOR = 1e-12
# Standard deviation of the normal draws that start every fit.
INIT_SCALE = 0.01
# The weight of the objective's l2 term, in every fit.
L2_PENALTY = 1e-4


@dataclass(frozen=True)
class LearnerConfig:
    kind: str = "multinomial_logistic"
    learning_rate: float = 0.1
    epochs: int = 300
    batch_size: int = 0          # 0 means full batch
    hidden_units: int = 32       # MLP only

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"kind must be one of {LEARNER_KINDS}")
        # Each bound is a negated test, so that NaN fails it too.
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not self.epochs >= 1:
            raise ValueError("epochs must be at least 1")
        if not self.batch_size >= 0:
            raise ValueError("batch_size must be nonnegative "
                             "(0 means full batch)")
        if (self.kind == "one_hidden_layer_mlp"
                and not self.hidden_units >= 1):
            raise ValueError("hidden_units must be at least 1")


@dataclass(eq=False)
class TrainedModel:
    parameters: np.ndarray
    kind: str
    K: int
    d: int
    hidden_units: int = 0


def _shapes(kind, d, K, H):
    """(out, in) of each layer: the logistic model's one, or the MLP's
    hidden and output layers."""
    if kind == "multinomial_logistic":
        return [(K, d)]
    return [(H, d), (K, H)]


def _size(shapes):
    """The number of flat parameters of layers of these (out, in) shapes,
    each with its bias."""
    return sum(out * (inp + 1) for out, inp in shapes)


def param_count(cfg: LearnerConfig, d: int, K: int) -> int:
    return _size(_shapes(cfg.kind, d, K, cfg.hidden_units))


def _layers(params, kind, d, K, H):
    """The flat [W, b] or [W1, b1, W2, b2] parameters as one (out, in + 1)
    matrix per layer, with the layer's bias as its last column. Raises
    ValueError if params is not a vector of exactly that many values."""
    shapes = _shapes(kind, d, K, H)
    if params.shape != (_size(shapes),):
        raise ValueError(f"this model has {_size(shapes)} parameters, "
                         f"got an array of shape {params.shape}")
    layers, start = [], 0
    for out, inp in shapes:
        W = np.empty((out, inp + 1))
        W[:, :inp] = params[start:start + out * inp].reshape(out, inp)
        W[:, inp] = params[start + out * inp:start + out * (inp + 1)]
        layers.append(W)
        start += out * (inp + 1)
    return layers


def _flat(layers):
    """The inverse of _layers: each layer's weights, then its bias."""
    return np.concatenate([part for W in layers
                           for part in (W[:, :-1].ravel(), W[:, -1])])


@dataclass(frozen=True, eq=False)
class ClassMajor:
    """n examples as the kernel reads them: XA is (d + 1, n), one column
    per example, each ending in a 1 that multiplies the first layer's
    bias. Its length is n. Build it with class_major."""
    XA: np.ndarray

    def __len__(self):
        return self.XA.shape[1]

    @property
    def d(self) -> int:
        return self.XA.shape[0] - 1

    def subset(self, rows) -> "ClassMajor":
        """The read-only ClassMajor copy of the examples at the indices
        rows, gathered from these columns. np.take keeps the copy
        C-ordered, as class_major's are; XA[:, rows] would be F-ordered,
        which the matmuls may sum in another order."""
        XA = np.take(self.XA, rows, axis=1)
        XA.flags.writeable = False
        return ClassMajor(XA)


def class_major(features: np.ndarray) -> ClassMajor:
    """The read-only ClassMajor copy of the examples in the rows of
    features (n, d)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be an (n, d) array, got shape "
                         f"{X.shape}")
    XA = np.empty((X.shape[1] + 1, X.shape[0]))
    XA[:-1] = X.T
    XA[-1] = 1.0
    XA.flags.writeable = False
    return ClassMajor(XA)


def _columns(features) -> ClassMajor:
    """features if it is a ClassMajor copy, else class_major(features)."""
    return (features if isinstance(features, ClassMajor)
            else class_major(features))


def _forward(layers, XA):
    """Class probabilities (K, m) of the m examples in the columns of XA,
    and the input of each layer: XA, then for the MLP the (H + 1, m)
    tanh hidden layer, whose last row is ones."""
    inputs = [XA]
    for W in layers[:-1]:
        A = np.empty((W.shape[0] + 1, XA.shape[1]))
        np.matmul(W, inputs[-1], out=A[:-1])
        np.tanh(A[:-1], out=A[:-1])
        A[-1] = 1.0
        inputs.append(A)
    scores = layers[-1] @ inputs[-1]
    # Softmax over the class axis, in place.
    scores -= scores.max(axis=0)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=0)
    return scores, inputs


def _objective(layers, XA, ST, l2):
    probs, _ = _forward(layers, XA)
    return (weighted_loss(probs.T, ST.T)
            + 0.5 * l2 * sum(float((W * W).sum()) for W in layers))


def _gradient(layers, XA, ST, l2):
    """Gradient of _objective with respect to each layer, in its shape,
    for the examples in the columns of XA with soft labels in the columns
    of ST (K, m)."""
    G, inputs = _forward(layers, XA)
    G -= ST
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        A = inputs[i]
        grads[i] = G @ A.T
        grads[i] /= XA.shape[1]
        grads[i] += l2 * layers[i]
        if i:
            G = layers[i][:, :-1].T @ G
            G *= 1.0 - A[:-1] * A[:-1]
    return grads


def _init_params(cfg, d, K, rng):
    return INIT_SCALE * rng.standard_normal(param_count(cfg, d, K))


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


def fit(features: np.ndarray | ClassMajor, soft: np.ndarray,
        cfg: LearnerConfig, seed) -> TrainedModel:
    """Train a model on soft labels by mini-batch gradient descent.

    features is the (n, d) array or its ClassMajor copy; the two give
    the same model bit for bit.

    Deterministic given (inputs, seed): initialization draws INIT_SCALE
    times standard normals from the seed's "init" substream, and
    per-epoch shuffles from its "shuffle" substream. batch_size=0 (or
    >= n) runs full-batch steps.

    Raises ValueError if there is no example to fit, and RuntimeError if
    the gradient turns non-finite mid-training.
    """
    examples = _columns(features)
    S = np.asarray(soft, dtype=np.float64)
    if S.ndim != 2 or len(examples) != S.shape[0]:
        raise ValueError("features and soft labels must align on examples")
    if not len(examples):
        raise ValueError("need at least one example to fit")
    n, d = len(examples), examples.d
    K = S.shape[1]
    H = cfg.hidden_units if cfg.kind == "one_hidden_layer_mlp" else 0
    XA, ST = examples.XA, np.ascontiguousarray(S.T)
    seed = as_seed(seed)
    layers = _layers(_init_params(cfg, d, K, seed.child("init").generator()),
                     cfg.kind, d, K, H)
    shuffle_rng = seed.child("shuffle").generator()

    batch = cfg.batch_size if 0 < cfg.batch_size < n else n

    for epoch in range(cfg.epochs):
        if batch == n:
            batches = (slice(None),)   # a view of XA: no copy, no shuffle draw
        else:
            order = shuffle_rng.permutation(n)
            batches = (order[start:start + batch] for start in range(0, n, batch))
        for idx in batches:
            grads = _gradient(layers, XA[:, idx], ST[:, idx], L2_PENALTY)
            for W, grad in zip(layers, grads):
                if not np.isfinite(grad).all():
                    raise RuntimeError(
                        f"non-finite training gradient at epoch {epoch}; "
                        "reduce the learning rate or feature scale"
                    )
                W -= cfg.learning_rate * grad

    return TrainedModel(parameters=_flat(layers), kind=cfg.kind,
                        K=K, d=d, hidden_units=H)


def _class_probs(model: TrainedModel, features) -> np.ndarray:
    """The (K, n) class probabilities of the examples in features, an
    (n, d) array or its ClassMajor copy."""
    examples = _columns(features)
    if examples.d != model.d:
        raise ValueError(f"features must be (n, {model.d}) for this model, "
                         f"got {(len(examples), examples.d)}")
    layers = _layers(model.parameters, model.kind, model.d, model.K,
                     model.hidden_units)
    # Taking [0] frees the layer inputs; a (d + 1, n) copy made for this
    # call goes on return, before the caller's result is allocated.
    return _forward(layers, examples.XA)[0]


def predict_proba(model: TrainedModel,
                  features: np.ndarray | ClassMajor) -> np.ndarray:
    """Row-stochastic (n, K) class probabilities, C-contiguous, of the
    (n, d) features or their ClassMajor copy."""
    return np.ascontiguousarray(_class_probs(model, features).T)


def zero_one_risk(model: TrainedModel, features: np.ndarray | ClassMajor,
                  truth: np.ndarray) -> float:
    """Fraction of argmax predictions that disagree with the true labels;
    a tie goes to the lowest class. features is the (n, d) array or its
    ClassMajor copy."""
    truth = np.asarray(truth, dtype=np.int64)
    preds = np.argmax(_class_probs(model, features), axis=0)
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
    examples = class_major(features)
    S = np.asarray(soft, dtype=np.float64)
    d, K = examples.d, S.shape[1]
    XA, ST = examples.XA, S.T
    rng = as_seed(seed).child("gradient-check").generator()
    params = _init_params(cfg, d, K, rng) + 0.1 * rng.standard_normal(
        param_count(cfg, d, K))
    H, l2 = cfg.hidden_units, L2_PENALTY

    def objective(point):
        return _objective(_layers(point, cfg.kind, d, K, H), XA, ST, l2)

    analytic = _flat(_gradient(_layers(params, cfg.kind, d, K, H),
                               XA, ST, l2))
    numeric = np.empty_like(analytic)
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = h
        numeric[i] = (objective(params + step)
                      - objective(params - step)) / (2 * h)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)
