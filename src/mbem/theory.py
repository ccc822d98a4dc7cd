"""Worker-quality functionals and the redundancy/budget trade-off.

For binary classification the excess risk of a posterior-weighted
learner inflates by 1/(1 - 2*beta), where beta measures how much
posterior mass the confusion estimates put on the wrong label, averaged
over worker assignments.

When all workers share a single flip probability rho and the confusion
estimates are off by at most eps entrywise, beta has a closed form:

    beta_eps = (rho+eps)^r * sum_u  C(r, u) / (tau^u + tau^(r-u)),
    tau      = (rho+eps) / (1-rho-eps).

Dividing sqrt(r) by (1 - 2*beta_eps) gives the redundancy-dependent
factor of the generalization bound under a fixed total annotation
budget; minimizing it over r answers how many labels to buy per example.
Collecting one label per example wins whenever worker accuracy (1-rho)
exceeds roughly 0.825.

The paper's generalization bound also needs a sample-size condition and
an entrywise bound on the confusion estimation error. Both hold only up
to unknown universal constants, and neither is implemented here. At the
sizes of the perfbench workloads (m of 100 to 1000 workers, budgets of
8000 to 45000 annotations; rho=0.2, V=10, delta=0.1), the worker term
alone asks for a budget of 4.5e6 to 5.5e7, and the error bound comes
out between 88 and 140 for entries that lie in [0, 1], even with the
constant set to 0. Beside a measured error they would say nothing.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import check_confusions
from .seeding import as_seed

__all__ = [
    "BetaEstimate",
    "beta_eps_closed_form",
    "beta_general_binary",
    "bound_factor",
    "optimal_redundancy",
]

EXACT_TUPLE_LIMIT = 1_000_000
MC_TUPLES = 100_000
_CHUNK = 4096


class BetaEstimate(NamedTuple):
    value: float
    stderr: float | None   # None when computed by exact enumeration


def beta_eps_closed_form(rho: float, epsilon: float, r: int) -> float:
    """Identical-worker beta under flip probability rho and estimation
    error epsilon, at redundancy r.

    Evaluated term by term; for r > 30 the binomial sum moves to log
    space to avoid overflow. rho + epsilon must stay below 1/2.
    """
    if not (0.0 <= rho < 0.5 and epsilon >= 0):
        raise ValueError("need 0 <= rho < 0.5 and epsilon >= 0")
    p = rho + epsilon
    if p >= 0.5:
        raise ValueError("rho + epsilon must be < 0.5")
    if r < 1:
        raise ValueError("redundancy must be at least 1")
    if p == 0.0:
        return 0.0
    tau = p / (1.0 - p)
    if r <= 30:
        total = sum(math.comb(r, u) / (tau ** u + tau ** (r - u))
                    for u in range(r + 1))
        return p ** r * total
    log_tau = math.log(tau)
    log_p = math.log(p)
    term_logs = np.array([
        math.lgamma(r + 1) - math.lgamma(u + 1) - math.lgamma(r - u + 1)
        + r * log_p - np.logaddexp(u * log_tau, (r - u) * log_tau)
        for u in range(r + 1)
    ])
    peak = term_logs.max()
    return float(math.exp(peak) * np.exp(term_logs - peak).sum())


def _binary_patterns(r: int) -> np.ndarray:
    codes = np.arange(2 ** r, dtype=np.int64)
    return (codes[:, None] >> np.arange(r)) & 1


def _beta_for_tuples(tuples, conf_true, conf_est, patterns):
    """Per-tuple beta contribution max_y sum_Z rho_hat(-y, Z) tau(y, Z),
    with rho_hat the posterior under the uniform class prior that
    core.posterior uses; its equal factors cancel in num / den, so num
    starts at ones."""
    c, r = tuples.shape
    P = patterns.shape[0]
    tau = np.ones((2, c, P))
    num = np.ones((2, c, P))
    for j in range(r):
        w = tuples[:, j]
        z = patterns[:, j]
        for y in (0, 1):
            tau[y] *= conf_true[w][:, y, :][:, z]
            num[y] *= conf_est[w][:, y, :][:, z]
    den = num[0] + num[1]
    rho_hat = np.divide(num, den[None], out=np.zeros_like(num),
                        where=den[None] > 0)
    s0 = (rho_hat[1] * tau[0]).sum(axis=1)   # mass on -y when truth is y=0
    s1 = (rho_hat[0] * tau[1]).sum(axis=1)
    return np.maximum(s0, s1)


def beta_general_binary(confusions: np.ndarray, confusion_estimates: np.ndarray,
                        r: int, seed=0,
                        mc_tuples: int = MC_TUPLES) -> BetaEstimate:
    """Binary beta for arbitrary worker pools.

    Averages, over length-r worker tuples drawn uniformly with
    replacement, the worst-case posterior mass that the estimated
    matrices place on the wrong label under the true annotation
    distribution; the posterior takes the uniform class prior that
    core.posterior uses. Tuples are enumerated exactly while m^r stays
    within 1e6; beyond that a seeded Monte-Carlo sample of mc_tuples
    tuples is used and the estimate carries its standard error. Confusion
    estimates are used as given (no clamping); annotation patterns with
    zero estimated mass contribute nothing.
    """
    conf_true = check_confusions(confusions)
    conf_est = check_confusions(confusion_estimates)
    m, K, _ = conf_true.shape
    if K != 2 or conf_est.shape != conf_true.shape:
        raise ValueError("general beta is defined for binary classification only")
    if not 1 <= r <= 12:
        raise ValueError("redundancy must lie in [1, 12]")

    patterns = _binary_patterns(r)
    exact = m ** r <= EXACT_TUPLE_LIMIT
    count = m ** r if exact else mc_tuples
    rng = as_seed(seed).child("beta-mc").generator()
    values = np.empty(count)
    for start in range(0, count, _CHUNK):
        c = min(_CHUNK, count - start)
        if exact:
            tuples = np.stack(np.unravel_index(np.arange(start, start + c),
                                               (m,) * r), axis=1)
        else:
            tuples = rng.integers(0, m, size=(c, r))
        values[start:start + c] = _beta_for_tuples(tuples, conf_true, conf_est,
                                                   patterns)
    stderr = None if exact else float(values.std(ddof=1) / math.sqrt(count))
    return BetaEstimate(float(values.mean()), stderr)


def bound_factor(rho: float, epsilon: float, r: int) -> float:
    """Redundancy-dependent excess-risk factor sqrt(r) / (1 - 2*beta_eps).

    Returns inf when beta_eps reaches 1/2 and the bound is vacuous.
    """
    beta = beta_eps_closed_form(rho, epsilon, r)
    if beta >= 0.5:
        return math.inf
    return math.sqrt(r) / (1.0 - 2.0 * beta)


def optimal_redundancy(rho: float, epsilon: float, r_max: int) -> int:
    """argmin over r in 1..r_max of bound_factor; ties go to smaller r."""
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    best_r, best_val = 1, bound_factor(rho, epsilon, 1)
    for r in range(2, r_max + 1):
        val = bound_factor(rho, epsilon, r)
        if val < best_val:
            best_r, best_val = r, val
    return best_r
