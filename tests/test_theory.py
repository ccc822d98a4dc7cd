import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from mbem.core import uniform_prior
from mbem.seeding import RngSeed
from mbem.simulate import WorkerSkillModel, sample_worker_pool
from mbem.theory import (
    beta_eps_closed_form,
    beta_general_binary,
    bound_factor,
    optimal_redundancy,
)


def symmetric_pool(rho, m):
    """m identical binary workers with flip probability rho."""
    return np.tile([[1 - rho, rho], [rho, 1 - rho]], (m, 1, 1))


def beta_highprec(rho, eps, r):
    """Arbitrary-precision evaluation of the closed-form sum."""
    p = mp.mpf(str(rho)) + mp.mpf(str(eps))
    if p == 0:
        return 0.0
    tau = p / (1 - p)
    total = mp.fsum(mp.binomial(r, u) / (tau ** u + tau ** (r - u))
                    for u in range(r + 1))
    return float(p ** r * total)


class TestBetaClosedForm:
    def test_perfect_workers(self):
        for r in (1, 2, 5, 40):
            assert beta_eps_closed_form(0.0, 0.0, r) == 0.0

    def test_r1_hand_value(self):
        assert_allclose(beta_eps_closed_form(0.2, 0.0, 1), 0.32, atol=1e-15)

    def test_r2_hand_value(self):
        # 0.04 * (1/(1+tau^2) + 1/tau + 1/(tau^2+1)) with tau = 0.25
        tau = 0.25
        expected = 0.04 * (2.0 / (1 + tau ** 2) + 1.0 / tau)
        assert_allclose(beta_eps_closed_form(0.2, 0.0, 2), expected, atol=1e-15)
        assert_allclose(beta_eps_closed_form(0.2, 0.0, 2), 0.23529411764705888,
                        atol=1e-12)

    def test_r1_identity_on_grid(self):
        for rho in np.arange(0.0, 0.4901, 0.005):
            assert abs(beta_eps_closed_form(rho, 0.0, 1)
                       - 2 * rho * (1 - rho)) <= 1e-12

    def test_log_domain_branch_matches_highprec(self):
        for rho, eps, r in ((0.3, 0.0, 31), (0.1, 0.05, 50), (0.45, 0.0, 80)):
            got = beta_eps_closed_form(rho, eps, r)
            want = beta_highprec(rho, eps, r)
            assert_allclose(got, want, rtol=1e-12)

    def test_branches_agree_near_cutover(self):
        # direct evaluation at r=30 vs the high-precision oracle
        assert_allclose(beta_eps_closed_form(0.3, 0.05, 30),
                        beta_highprec(0.3, 0.05, 30), rtol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_eps_closed_form(0.3, 0.2, 2)
        with pytest.raises(ValueError):
            beta_eps_closed_form(0.5, 0.0, 1)
        with pytest.raises(ValueError):
            beta_eps_closed_form(-0.1, 0.0, 1)
        with pytest.raises(ValueError):
            beta_eps_closed_form(0.2, 0.0, 0)


class TestBoundFactor:
    def test_rho_0175_r1_minimal(self):
        factors = [bound_factor(0.175, 0.0, r) for r in (1, 2, 3)]
        assert_allclose(factors, [2.3668639053254434, 2.3807322987878434,
                                  2.3771156310642065], rtol=1e-12)
        assert factors[0] == min(factors)

    def test_rho_03_r1_not_minimal(self):
        assert_allclose(bound_factor(0.3, 0.0, 1), 6.25, atol=1e-12)
        assert_allclose(bound_factor(0.3, 0.0, 3), 4.672617233437969,
                        rtol=1e-12)
        assert bound_factor(0.3, 0.0, 3) < bound_factor(0.3, 0.0, 1)

    def test_perfect_workers_give_sqrt_r(self):
        for r in (1, 2, 4, 9):
            assert bound_factor(0.0, 0.0, r) == math.sqrt(r)

    def test_monotone_in_epsilon(self):
        for r in (1, 3, 5):
            factors = [bound_factor(0.2, eps, r)
                       for eps in (0.0, 0.05, 0.1, 0.2)]
            assert all(a < b for a, b in zip(factors, factors[1:]))

    def test_infinite_signal_at_half(self):
        # two ulps below 0.5, the r=1 beta rounds to exactly 1/2
        p = np.nextafter(np.nextafter(0.5, 0), 0)
        assert bound_factor(float(p), 0.0, 1) == math.inf
        assert math.isfinite(bound_factor(0.49, 0.0, 1))
        # in the interior the factor diverges but stays finite
        assert bound_factor(0.499999, 0.0, 1) > 1e5


class TestOptimalRedundancy:
    def test_threshold_grid(self):
        for rho in np.arange(0.0, 0.1751, 0.005):
            assert optimal_redundancy(rho, 0.0, 9) == 1

    @pytest.mark.parametrize("rho,best", [(0.175, 1), (0.18, 3), (0.2, 3),
                                          (0.25, 4), (0.3, 7)])
    def test_one_label_threshold_values(self, rho, best):
        assert optimal_redundancy(rho, 0.0, 9) == best

    def test_noisy_workers_prefer_redundancy(self):
        assert optimal_redundancy(0.3, 0.0, 9) > 1

    def test_perfect_workers(self):
        assert optimal_redundancy(0.0, 0.0, 9) == 1


class TestBetaGeneral:
    def test_matches_closed_form_identical_workers(self):
        prior = uniform_prior(2)
        for rho in (0.05, 0.2, 0.35):
            for m in (2, 5, 10):
                for r in (1, 2, 3):
                    pool = symmetric_pool(rho, m)
                    est = beta_general_binary(pool, pool, prior, r)
                    assert est.stderr is None
                    assert abs(est.value
                               - beta_eps_closed_form(rho, 0.0, r)) <= 1e-10

    def test_identity_confusions_give_zero(self):
        pool = symmetric_pool(0.0, 3)
        est = beta_general_binary(pool, pool, uniform_prior(2), 2)
        assert est.value == 0.0

    def test_uninformative_estimates_give_half(self):
        true_pool = symmetric_pool(0.2, 4)
        flat = np.full((4, 2, 2), 0.5)
        est = beta_general_binary(true_pool, flat, uniform_prior(2), 3)
        assert_allclose(est.value, 0.5, atol=1e-12)

    def test_monte_carlo_regime_agrees_with_closed_form(self):
        rho, m, r = 0.25, 12, 7   # 12^7 ~ 3.6e7 forces sampling
        pool = symmetric_pool(rho, m)
        est = beta_general_binary(pool, pool, uniform_prior(2), r, seed=5,
                                  mc_tuples=20000)
        assert est.stderr is not None
        want = beta_eps_closed_form(rho, 0.0, r)
        assert abs(est.value - want) <= max(5 * est.stderr, 1e-6)

    @pytest.mark.parametrize("gamma,hammers,betas,factors,best_r", [
        (0.8, 75, (0.125, 0.0078125), (1.333, 1.760), 1),
        (0.4, 31, (0.345, 0.1642545), (3.226, 2.579), 3),
    ])
    def test_hammer_spammer_pool_table(self, gamma, hammers, betas, factors,
                                       best_r):
        # The workers.csv of `mbem simulate --seed 0 --m 100 --skill
        # hammer_spammer --gamma <gamma>`, as its own estimates. A tuple's
        # wrong-label mass is 1/2 when every worker in it is a spammer and
        # 0 otherwise, so beta(r) is 0.5 * (spammer share)^r.
        pool = sample_worker_pool(WorkerSkillModel("hammer_spammer", gamma, 2),
                                  100, RngSeed(0).child("workers"))
        assert int((pool[:, 0, 0] == 1.0).sum()) == hammers
        got = {}
        for r, beta, factor in zip((1, 3), betas, factors):
            est = beta_general_binary(pool, pool, uniform_prior(2), r)
            assert est.stderr is None
            assert est.value == pytest.approx(beta, rel=1e-12, abs=0)
            assert est.value == pytest.approx(0.5 * (1 - hammers / 100) ** r,
                                              rel=1e-12, abs=0)
            got[r] = math.sqrt(r) / (1 - 2 * est.value)
            assert got[r] == pytest.approx(factor, abs=5e-4)
        assert min(got, key=got.get) == best_r

    def test_rejects_multiclass(self):
        pool = np.tile(np.eye(3), (2, 1, 1))
        with pytest.raises(ValueError, match="binary"):
            beta_general_binary(pool, pool, np.full(3, 1 / 3), 2)

    def test_rejects_large_r(self):
        pool = symmetric_pool(0.1, 2)
        with pytest.raises(ValueError, match="redundancy"):
            beta_general_binary(pool, pool, uniform_prior(2), 13)
