import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mbem.core import (
    classic_em,
    estimate_confusions_and_prior,
    hard_labels,
    majority_vote_init,
    posterior,
    uniform_prior,
)
from mbem.learn import LearnerConfig, fit, predict_proba, weighted_loss, \
    zero_one_risk
from mbem.methods import (
    MbemConfig,
    correctly_labeled_mask,
    one_hot,
    run_hard_baseline,
    run_mbem,
    run_weighted_baseline,
    train_method,
)
from mbem.seeding import RngSeed
from mbem.simulate import (
    WorkerSkillModel,
    assign_workers,
    corrupt_labels,
    make_synthetic_dataset,
    sample_worker_pool,
)

FAST = LearnerConfig(epochs=150)
CFG = MbemConfig(learner=FAST)


def make_cell(n, K, d, m, gamma, r, seed, margin=6.0, confusions=None):
    """One synthetic crowdsourcing dataset keyed off a single master seed."""
    root = RngSeed(seed)
    X, y = make_synthetic_dataset(n, K, d, margin, root.child("data"))
    if confusions is None:
        model = WorkerSkillModel(kind="hammer_spammer", gamma=gamma, K=K)
        confusions = sample_worker_pool(model, m, root.child("workers"))
    assignment = assign_workers(n, r, m, root.child("assign"))
    ann = corrupt_labels(y, assignment, confusions, root.child("corrupt"))
    return X, y, ann, confusions


def hammers_and_spammers(n_hammers, n_spammers, K):
    eye = np.tile(np.eye(K), (n_hammers, 1, 1))
    flat = np.full((n_spammers, K, K), 1.0 / K)
    return np.concatenate([eye, flat])


class TestRunMbem:
    def test_identity_workers_recover_identity_confusions(self):
        X, y, ann, _ = make_cell(n=2000, K=3, d=6, m=5, gamma=1.0, r=1, seed=0)
        result = run_mbem(X, ann, MbemConfig(rounds=1, learner=FAST), seed=1)
        error = np.abs(result.confusions - np.eye(3)).max()
        assert error <= 0.02

    def test_single_label_separates_hammers_from_spammers(self):
        K, m = 5, 20
        conf_true = hammers_and_spammers(10, 10, K)
        X, y, ann, _ = make_cell(n=10000, K=K, d=10, m=m, gamma=0.5, r=1,
                                 seed=2, confusions=conf_true)
        result = run_mbem(X, ann, CFG, seed=3)
        diags = result.confusions[:, np.arange(K), np.arange(K)].mean(axis=1)
        assert diags[:10].min() >= 0.9            # hammers
        assert diags[10:].max() <= 1.0 / K + 0.1  # spammers

    def test_second_round_does_not_hurt(self):
        risks = {1: [], 2: []}
        X_test, y_test = make_synthetic_dataset(4000, 5, 10, 6.0, RngSeed(77))
        for seed in range(5):
            X, y, ann, _ = make_cell(n=6000, K=5, d=10, m=20, gamma=0.2, r=1,
                                     seed=100 + seed)
            for rounds in (1, 2):
                cfg = MbemConfig(rounds=rounds, learner=FAST)
                result = run_mbem(X, ann, cfg, seed=seed)
                risks[rounds].append(zero_one_risk(result.model, X_test, y_test))
        assert np.median(risks[2]) <= np.median(risks[1]) + 0.005

    def test_single_round_equals_manual_composition(self):
        X, y, ann, _ = make_cell(n=300, K=2, d=4, m=4, gamma=0.5, r=2, seed=4)
        seed = RngSeed(5)
        cfg = MbemConfig(rounds=1, learner=FAST)
        result = run_mbem(X, ann, cfg, seed)

        soft0 = majority_vote_init(ann)
        model = fit(X, soft0, cfg.learner, seed.child("round", 0))
        t = hard_labels(predict_proba(model, X))
        conf, _ = estimate_confusions_and_prior(ann, t, smoothing=cfg.smoothing)
        soft = posterior(ann, conf, uniform_prior(2))

        assert_array_equal(result.model.parameters, model.parameters)
        assert_array_equal(result.confusions, conf)
        assert_array_equal(result.soft, soft)

    def test_round_risk_is_the_weighted_loss_on_the_training_labels(self):
        X, y, ann, _ = make_cell(n=300, K=2, d=4, m=4, gamma=0.5, r=2, seed=4)
        cfg = MbemConfig(rounds=1, learner=FAST)
        result = run_mbem(X, ann, cfg, seed=5)
        assert result.per_round_train_risk == [
            weighted_loss(predict_proba(result.model, X),
                          majority_vote_init(ann))]

    def test_soft_labels_stay_on_simplex(self):
        X, y, ann, _ = make_cell(n=200, K=3, d=5, m=6, gamma=0.3, r=2, seed=6)
        result = run_mbem(X, ann, MbemConfig(rounds=3, learner=FAST), seed=7)
        assert result.soft.min() >= 0
        assert_allclose(result.soft.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic(self):
        X, y, ann, _ = make_cell(n=200, K=2, d=4, m=4, gamma=0.5, r=1, seed=8)
        a = run_mbem(X, ann, CFG, seed=9)
        b = run_mbem(X, ann, CFG, seed=9)
        assert_array_equal(a.model.parameters, b.model.parameters)
        assert_array_equal(a.confusions, b.confusions)
        assert_array_equal(a.soft, b.soft)
        assert a.per_round_train_risk == b.per_round_train_risk

    def test_learner_failure_names_round(self):
        X, y, ann, _ = make_cell(n=100, K=2, d=4, m=3, gamma=0.5, r=1, seed=10)
        bad = MbemConfig(learner=LearnerConfig(learning_rate=1e12, epochs=60))
        with np.errstate(all="ignore"), pytest.raises(RuntimeError,
                                                      match="round 0"):
            run_mbem(1e6 * X, ann, bad, seed=11)

    def test_estimated_prior_mode(self):
        X, y, ann, _ = make_cell(n=400, K=2, d=4, m=4, gamma=1.0, r=1, seed=12)
        cfg = MbemConfig(prior_mode="estimated", learner=FAST)
        result = run_mbem(X, ann, cfg, seed=13)
        # perfect workers: estimated prior tracks the class balance
        assert_allclose(result.prior, np.bincount(y, minlength=2) / 400,
                        atol=0.02)

    def test_unknown_prior_mode_rejected(self):
        with pytest.raises(ValueError, match="prior_mode"):
            MbemConfig(prior_mode="empirical")


class TestWeightedBaselines:
    def test_weighted_mv_at_r1_is_raw_onehot_training(self):
        X, y, ann, _ = make_cell(n=300, K=3, d=5, m=5, gamma=0.4, r=1, seed=20)
        seed = RngSeed(21)
        model = run_weighted_baseline(X, ann, "weighted-mv", CFG, seed).model
        raw = one_hot(ann.labels[np.argsort(ann.example_ids)], 3)
        reference = fit(X, raw, CFG.learner, seed.child("fit"))
        assert_array_equal(model.parameters, reference.parameters)

    def test_oracle_with_identity_confusions_matches_truth_training(self):
        X, y, ann, conf = make_cell(n=300, K=2, d=4, m=4, gamma=1.0, r=2,
                                    seed=22)
        seed = RngSeed(23)
        model = run_weighted_baseline(X, ann, "oracle-weighted-em", CFG, seed,
                                      oracle_confusions=conf).model
        reference = fit(X, one_hot(y, 2), CFG.learner, seed.child("fit"))
        # the 1e-6 confusion clamp perturbs the targets, not the argmax
        assert_allclose(model.parameters, reference.parameters, atol=1e-3)
        Xt, _ = make_synthetic_dataset(500, 2, 4, 6.0, RngSeed(24))
        assert_array_equal(np.argmax(predict_proba(model, Xt), axis=1),
                           np.argmax(predict_proba(reference, Xt), axis=1))

    def test_weighted_em_uses_classic_em_posterior_bitwise(self):
        X, y, ann, _ = make_cell(n=200, K=2, d=4, m=4, gamma=0.3, r=3, seed=25)
        soft = train_method("weighted-em", X, ann, CFG, RngSeed(25)).soft
        reference, _, _ = classic_em(ann)
        assert_array_equal(soft, reference)

    def test_oracle_mode_requires_confusions(self):
        X, y, ann, _ = make_cell(n=100, K=2, d=4, m=3, gamma=0.5, r=1, seed=26)
        with pytest.raises(ValueError, match="true confusion"):
            run_weighted_baseline(X, ann, "oracle-weighted-em", CFG, seed=27)

    def test_unknown_mode_rejected(self):
        X, y, ann, _ = make_cell(n=100, K=2, d=4, m=3, gamma=0.5, r=1, seed=28)
        with pytest.raises(ValueError, match="mode"):
            run_weighted_baseline(X, ann, "bogus", CFG, seed=29)


class TestHardBaselines:
    def test_identity_workers_make_all_modes_equal_truth_training(self):
        X, y, ann, _ = make_cell(n=300, K=3, d=5, m=5, gamma=1.0, r=3, seed=30)
        seed = RngSeed(31)
        reference = fit(X, one_hot(y, 3), CFG.learner, seed.child("fit"))
        for mode, kwargs in (("mv", {}), ("em", {}),
                             ("oracle-correct", {"truth": y})):
            model = run_hard_baseline(X, ann, mode, CFG, seed, **kwargs).model
            assert_array_equal(model.parameters, reference.parameters)

    def test_all_spammers_keep_about_half_binary(self):
        K, n = 2, 10000
        conf = np.full((3, K, K), 0.5)
        X, y, ann, _ = make_cell(n=n, K=K, d=4, m=3, gamma=0.0, r=1, seed=32,
                                 confusions=conf)
        frac = correctly_labeled_mask(ann, y).mean()
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_oracle_correct_requires_truth_and_survivors(self):
        X, y, ann, _ = make_cell(n=100, K=2, d=4, m=3, gamma=0.5, r=1, seed=33)
        with pytest.raises(ValueError, match="true labels"):
            run_hard_baseline(X, ann, "oracle-correct", CFG, seed=34)
        wrong = 1 - ann.labels  # every annotation disagrees with this "truth"
        ann_wrong_truth = wrong[np.argsort(ann.example_ids)]
        with pytest.raises(ValueError, match="no example"):
            run_hard_baseline(X, ann, "oracle-correct", CFG, seed=35,
                              truth=ann_wrong_truth)

    def test_majority_vote_beats_lone_spammer(self):
        # every example labelled by two hammers and one spammer
        K, n = 4, 2000
        conf = hammers_and_spammers(2, 1, K)
        root = RngSeed(36)
        X, y = make_synthetic_dataset(n, K, 6, 6.0, root.child("data"))
        assignment = np.tile([0, 1, 2], (n, 1))
        ann = corrupt_labels(y, assignment, conf, root.child("corrupt"))
        aggregated = hard_labels(train_method("mv", X, ann, CFG, root).soft)
        spammer_labels = ann.labels[ann.worker_ids == 2]
        spammer_error = (spammer_labels != y).mean()
        assert (aggregated != y).mean() <= spammer_error
        # two hammers always outvote one spammer
        assert (aggregated != y).mean() == 0.0
