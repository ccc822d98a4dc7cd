import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mbem import core, methods
from mbem.core import (
    classic_em,
    estimate_confusions_and_prior,
    hard_labels,
    majority_vote_init,
    posterior,
)
from mbem.learn import LearnerConfig, class_major, fit, predict_proba, \
    weighted_loss, zero_one_risk
from mbem.methods import (
    MBEM_ROUNDS,
    MBEM_SMOOTHING,
    Unit,
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


def count_fits(monkeypatch):
    """A list that gains one entry per learn.fit call methods makes."""
    calls, real = [], methods.fit
    monkeypatch.setattr(methods, "fit",
                        lambda *args: calls.append(1) or real(*args))
    return calls


class TestRunMbem:
    def test_identity_workers_recover_identity_confusions(self):
        X, y, ann, _ = make_cell(n=2000, K=3, d=6, m=5, gamma=1.0, r=1, seed=0)
        result = run_mbem(Unit(class_major(X), ann, FAST, 1))
        error = np.abs(result.confusions - np.eye(3)).max()
        assert error <= 0.02

    def test_single_label_separates_hammers_from_spammers(self):
        K, m = 5, 20
        conf_true = hammers_and_spammers(10, 10, K)
        X, y, ann, _ = make_cell(n=10000, K=K, d=10, m=m, gamma=0.5, r=1,
                                 seed=2, confusions=conf_true)
        result = run_mbem(Unit(class_major(X), ann, FAST, 3))
        diags = result.confusions[:, np.arange(K), np.arange(K)].mean(axis=1)
        assert diags[:10].min() >= 0.9            # hammers
        assert diags[10:].max() <= 1.0 / K + 0.1  # spammers

    def test_second_round_does_not_hurt(self):
        # weighted-mv's model is MBEM's round-0 model.
        risks = {"weighted-mv": [], "mbem": []}
        X_test, y_test = make_synthetic_dataset(4000, 5, 10, 6.0, RngSeed(77))
        test_columns = class_major(X_test)
        for seed in range(5):
            X, y, ann, _ = make_cell(n=6000, K=5, d=10, m=20, gamma=0.2, r=1,
                                     seed=100 + seed)
            for method in risks:
                unit = Unit(class_major(X), ann, FAST, seed)
                model = train_method(method, unit).model
                risks[method].append(zero_one_risk(model, test_columns,
                                                   y_test))
        assert (np.median(risks["mbem"])
                <= np.median(risks["weighted-mv"]) + 0.005)

    @staticmethod
    def manual_rounds(X, ann, seed, cfg=FAST):
        """MBEM_ROUNDS rounds of fit, relabel and update, composed from
        their parts, each call on its own class-major copy of X: (model,
        confusions, soft, per-round risks)."""
        soft, risks = majority_vote_init(ann), []
        for _ in range(MBEM_ROUNDS):
            model = fit(class_major(X), soft, cfg, seed)
            probs = predict_proba(model, class_major(X))
            risks.append(weighted_loss(probs, soft))
            conf, _ = estimate_confusions_and_prior(ann, hard_labels(probs),
                                                    MBEM_SMOOTHING)
            soft = posterior(ann, conf)
        return model, conf, soft, risks

    def assert_rounds_equal_manual_composition(self, cfg):
        # run_mbem reads the unit's one class-major copy of the features;
        # the composition builds a copy for each call.
        X, y, ann, _ = make_cell(n=300, K=2, d=4, m=4, gamma=0.5, r=2, seed=4)
        seed = RngSeed(5)
        result = run_mbem(Unit(class_major(X), ann, cfg, seed))
        model, conf, soft, _ = self.manual_rounds(X, ann, seed, cfg)
        assert_array_equal(result.model.parameters, model.parameters)
        assert_array_equal(result.confusions, conf)
        assert_array_equal(result.soft, soft)

    def test_rounds_equal_manual_composition(self):
        self.assert_rounds_equal_manual_composition(FAST)

    def test_mini_batch_mlp_rounds_equal_manual_composition(self):
        self.assert_rounds_equal_manual_composition(LearnerConfig(
            kind="one_hidden_layer_mlp", hidden_units=5, batch_size=64,
            epochs=20))

    def test_round_risk_is_the_weighted_loss_on_the_training_labels(self):
        X, y, ann, _ = make_cell(n=300, K=2, d=4, m=4, gamma=0.5, r=2, seed=4)
        result = run_mbem(Unit(class_major(X), ann, FAST, 5))
        assert (result.per_round_train_risk
                == self.manual_rounds(X, ann, RngSeed(5))[3])

    def test_soft_labels_stay_on_simplex(self):
        X, y, ann, _ = make_cell(n=200, K=3, d=5, m=6, gamma=0.3, r=2, seed=6)
        result = run_mbem(Unit(class_major(X), ann, FAST, 7))
        assert result.soft.min() >= 0
        assert_allclose(result.soft.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic(self):
        X, y, ann, _ = make_cell(n=200, K=2, d=4, m=4, gamma=0.5, r=1, seed=8)
        a = run_mbem(Unit(class_major(X), ann, FAST, 9))
        b = run_mbem(Unit(class_major(X), ann, FAST, 9))
        assert_array_equal(a.model.parameters, b.model.parameters)
        assert_array_equal(a.confusions, b.confusions)
        assert_array_equal(a.soft, b.soft)
        assert a.per_round_train_risk == b.per_round_train_risk

    def test_learner_failure_reaches_the_caller(self):
        X, y, ann, _ = make_cell(n=100, K=2, d=4, m=3, gamma=0.5, r=1, seed=10)
        bad = LearnerConfig(learning_rate=1e12, epochs=60)
        with np.errstate(all="ignore"), pytest.raises(
                RuntimeError, match="^non-finite training gradient"):
            run_mbem(Unit(class_major(1e6 * X), ann, bad, 11))


class TestWeightedBaselines:
    def test_weighted_mv_at_r1_is_raw_onehot_training(self):
        X, y, ann, _ = make_cell(n=300, K=3, d=5, m=5, gamma=0.4, r=1, seed=20)
        seed = RngSeed(21)
        model = run_weighted_baseline(Unit(class_major(X), ann, FAST, seed),
                                      "weighted-mv").model
        raw = one_hot(ann.labels[np.argsort(ann.example_ids)], 3)
        reference = fit(class_major(X), raw, FAST, seed)
        assert_array_equal(model.parameters, reference.parameters)

    def test_oracle_with_identity_confusions_matches_truth_training(self):
        X, y, ann, conf = make_cell(n=300, K=2, d=4, m=4, gamma=1.0, r=2,
                                    seed=22)
        seed = RngSeed(23)
        unit = Unit(class_major(X), ann, FAST, seed, oracle_confusions=conf)
        model = run_weighted_baseline(unit, "oracle-weighted-em").model
        reference = fit(class_major(X), one_hot(y, 2), FAST, seed)
        # the 1e-6 confusion clamp perturbs the targets, not the argmax
        assert_allclose(model.parameters, reference.parameters, atol=1e-3)
        Xt, _ = make_synthetic_dataset(500, 2, 4, 6.0, RngSeed(24))
        Xt = class_major(Xt)
        assert_array_equal(np.argmax(predict_proba(model, Xt), axis=1),
                           np.argmax(predict_proba(reference, Xt), axis=1))

    def test_weighted_em_uses_classic_em_posterior_bitwise(self):
        X, y, ann, _ = make_cell(n=200, K=2, d=4, m=4, gamma=0.3, r=3, seed=25)
        unit = Unit(class_major(X), ann, FAST, RngSeed(25))
        soft = train_method("weighted-em", unit).soft
        reference, _ = classic_em(ann)
        assert_array_equal(soft, reference)

    def test_oracle_mode_requires_confusions(self):
        X, y, ann, _ = make_cell(n=100, K=2, d=4, m=3, gamma=0.5, r=1, seed=26)
        with pytest.raises(ValueError, match="true confusion"):
            run_weighted_baseline(Unit(class_major(X), ann, FAST, 27),
                                  "oracle-weighted-em")

    def test_unknown_mode_rejected(self):
        X, y, ann, _ = make_cell(n=100, K=2, d=4, m=3, gamma=0.5, r=1, seed=28)
        with pytest.raises(ValueError, match="mode"):
            run_weighted_baseline(Unit(class_major(X), ann, FAST, 29), "bogus")


class TestHardBaselines:
    def test_identity_workers_make_all_modes_equal_truth_training(self):
        X, y, ann, _ = make_cell(n=300, K=3, d=5, m=5, gamma=1.0, r=3, seed=30)
        seed = RngSeed(31)
        reference = fit(class_major(X), one_hot(y, 3), FAST, seed)
        for mode in ("mv", "em", "oracle-correct"):
            unit = Unit(class_major(X), ann, FAST, seed, truth=y)
            model = run_hard_baseline(unit, mode).model
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
            run_hard_baseline(Unit(class_major(X), ann, FAST, 34),
                              "oracle-correct")
        wrong = 1 - ann.labels  # every annotation disagrees with this "truth"
        ann_wrong_truth = wrong[np.argsort(ann.example_ids)]
        with pytest.raises(ValueError, match="no example"):
            run_hard_baseline(Unit(class_major(X), ann, FAST, 35,
                                   truth=ann_wrong_truth), "oracle-correct")

    def test_oracle_correct_trains_on_its_rows_alone(self, monkeypatch):
        X, y, ann, _ = make_cell(n=300, K=3, d=5, m=5, gamma=0.3, r=1, seed=36)
        rows = correctly_labeled_mask(ann, y)
        assert 0 < rows.sum() < rows.size
        seed = RngSeed(37)
        reference = fit(class_major(X[rows]), one_hot(y[rows], 3), FAST, seed)
        fits = count_fits(monkeypatch)
        unit = Unit(class_major(X), ann, FAST, seed, truth=y)
        for _ in range(2):
            model = train_method("oracle-correct", unit).model
            assert_array_equal(model.parameters, reference.parameters)
        # Its fit bypasses the unit's memo, so truth, which trains on
        # every row, cannot take it.
        truth = train_method("truth", unit).model
        assert len(fits) == 3 and truth is not model
        monkeypatch.undo()
        reference = fit(class_major(X), one_hot(y, 3), FAST, seed)
        assert_array_equal(truth.parameters, reference.parameters)

    def test_majority_vote_beats_lone_spammer(self):
        # every example labelled by two hammers and one spammer
        K, n = 4, 2000
        conf = hammers_and_spammers(2, 1, K)
        root = RngSeed(36)
        X, y = make_synthetic_dataset(n, K, 6, 6.0, root.child("data"))
        assignment = np.tile([0, 1, 2], (n, 1))
        ann = corrupt_labels(y, assignment, conf, root.child("corrupt"))
        unit = Unit(class_major(X), ann, FAST, root)
        aggregated = hard_labels(train_method("mv", unit).soft)
        spammer_labels = ann.labels[ann.worker_ids == 2]
        spammer_error = (spammer_labels != y).mean()
        assert (aggregated != y).mean() <= spammer_error
        # two hammers always outvote one spammer
        assert (aggregated != y).mean() == 0.0


class TestSharedFits:
    def test_weighted_mv_fits_mbem_round_0(self, monkeypatch):
        X, y, ann, _ = make_cell(n=300, K=3, d=5, m=5, gamma=0.4, r=2, seed=40)
        seed = RngSeed(41)
        fits = count_fits(monkeypatch)
        unit = Unit(class_major(X), ann, FAST, seed)
        weighted = train_method("weighted-mv", unit).model
        shared = run_mbem(unit).model
        # Round 0 took weighted-mv's fit, and each later round added one.
        assert len(fits) == MBEM_ROUNDS
        assert unit.fit(majority_vote_init(ann)) is weighted
        alone = run_mbem(Unit(class_major(X), ann, FAST, seed)).model
        assert_array_equal(alone.parameters, shared.parameters)

    def test_at_r1_mv_em_and_weighted_mv_fit_one_model(self, monkeypatch):
        X, y, ann, _ = make_cell(n=300, K=3, d=5, m=5, gamma=0.4, r=1, seed=42)
        seed = RngSeed(43)
        fits = count_fits(monkeypatch)
        unit = Unit(class_major(X), ann, FAST, seed)
        shared = [train_method(method, unit).model
                  for method in ("mv", "em", "weighted-mv")]
        assert shared[1] is shared[0] and shared[2] is shared[0]
        assert len(fits) == 1
        for method in ("em", "weighted-mv"):
            alone = train_method(method,
                                 Unit(class_major(X), ann, FAST, seed)).model
            assert_array_equal(alone.parameters, shared[0].parameters)

    def test_a_fit_is_shared_for_equal_targets_only(self):
        X, y, ann, _ = make_cell(n=200, K=2, d=4, m=4, gamma=0.5, r=1, seed=44)
        unit = Unit(class_major(X), ann, FAST, RngSeed(45))
        targets = one_hot(y, 2)
        model = unit.fit(targets)
        assert unit.fit(targets.copy()) is model
        other = targets.copy()
        other[0] = other[0, ::-1]
        assert unit.fit(other) is not model

    def test_a_unit_votes_once(self, monkeypatch):
        X, y, ann, _ = make_cell(n=200, K=3, d=5, m=5, gamma=0.4, r=2, seed=48)
        calls, real = [], core.majority_vote_init
        monkeypatch.setattr(core, "majority_vote_init",
                            lambda ann: calls.append(ann) or real(ann))
        unit = Unit(class_major(X), ann, LearnerConfig(epochs=5), RngSeed(49))
        for method in ("mv", "weighted-mv", "em", "weighted-em", "mbem"):
            train_method(method, unit)
        assert calls == [ann]

    def test_shared_arrays_are_read_only(self):
        X, y, ann, _ = make_cell(n=200, K=2, d=4, m=4, gamma=0.5, r=2, seed=46)
        # weighted-mv's posterior is the targets of its fit.
        result = train_method("weighted-mv",
                              Unit(class_major(X), ann, FAST, RngSeed(47)))
        for arr in (result.model.parameters, result.soft, *ann.classic_em):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


NAN = float("nan")


@pytest.mark.parametrize("cls,value,message", [
    (LearnerConfig, {"kind": "svm"}, "kind must be one of"),
    (LearnerConfig, {"learning_rate": 0.0}, "learning_rate must be positive"),
    (LearnerConfig, {"learning_rate": NAN}, "learning_rate must be positive"),
    (LearnerConfig, {"epochs": 0}, "epochs must be at least 1"),
    (LearnerConfig, {"learning_rate": -0.1}, "learning_rate must be positive"),
    (LearnerConfig, {"kind": "one_hidden_layer_mlp",
                     "hidden_units": NAN}, "hidden_units must be at least 1"),
    (LearnerConfig, {"batch_size": -5}, "batch_size must be nonnegative"),
    (LearnerConfig, {"kind": "one_hidden_layer_mlp",
                     "hidden_units": 0}, "hidden_units must be at least 1"),
    (LearnerConfig, {"epochs": NAN}, "epochs must be at least 1"),
    (LearnerConfig, {"batch_size": NAN}, "batch_size must be nonnegative"),
    (LearnerConfig, {"learning_rate": float("inf")},
     "learning_rate must be positive and finite"),
])
def test_each_config_bound_rejects_a_value_outside_it(cls, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        cls(**value)
