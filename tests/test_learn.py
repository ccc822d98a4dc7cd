import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mbem import learn
from mbem.learn import (
    LearnerConfig,
    TrainedModel,
    _flat,
    _gradient,
    _layers,
    _objective,
    class_major,
    fit,
    gradient_check,
    param_count,
    predict_proba,
    weighted_loss,
    zero_one_risk,
)
from mbem.methods import one_hot
from mbem.simulate import make_synthetic_dataset

from conftest import fit_oracle, forward_oracle, gradient_oracle

MLP = LearnerConfig(kind="one_hidden_layer_mlp", hidden_units=6)


class TestWeightedLoss:
    def test_one_hot_reduces_to_cross_entropy(self):
        p = np.array([0.3, 0.6, 0.1])
        for k in range(3):
            w = np.zeros(3)
            w[k] = 1.0
            assert weighted_loss(p, w) == -math.log(p[k])

    def test_hand_value(self):
        value = weighted_loss(np.array([0.9, 0.1]), np.array([0.5, 0.5]))
        assert_allclose(value, 0.5 * (-math.log(0.9)) + 0.5 * (-math.log(0.1)),
                        atol=1e-15)
        assert_allclose(value, 1.2039728043259361, atol=1e-12)

    def test_uniform_weights_are_permutation_symmetric(self, rng):
        p = rng.dirichlet(np.ones(4))
        w = np.full(4, 0.25)
        for _ in range(5):
            perm = rng.permutation(4)
            assert_allclose(weighted_loss(p[perm], w), weighted_loss(p, w),
                            atol=1e-12)

    def test_floors_probabilities(self):
        assert np.isfinite(weighted_loss(np.array([1.0, 0.0]),
                                         np.array([0.0, 1.0])))

    def test_rows_average_to_the_mean_row_value(self, rng):
        p = rng.dirichlet(np.ones(3), size=7)
        w = rng.dirichlet(np.ones(3), size=7)
        rows = [weighted_loss(p[i], w[i]) for i in range(7)]
        assert_allclose(weighted_loss(p, w), np.mean(rows), rtol=1e-15)


class TestFit:
    def test_separable_data_reaches_low_train_error(self):
        X, y = make_synthetic_dataset(1000, 3, 6, margin=6.0, seed=0)
        model = fit(class_major(X), one_hot(y, 3), LearnerConfig(), seed=1)
        assert zero_one_risk(model, class_major(X), y) <= 0.01

    def test_uniform_soft_labels_shrink_to_uniform_predictions(self,
                                                               monkeypatch):
        X, _ = make_synthetic_dataset(500, 2, 4, margin=6.0, seed=2)
        Xt, _ = make_synthetic_dataset(200, 2, 4, margin=6.0, seed=3)
        soft = np.full((500, 2), 0.5)
        # Ten times the fixed weight, so that 400 epochs shrink the model.
        monkeypatch.setattr(learn, "L2_PENALTY", 1e-3)
        model = fit(class_major(X), soft, LearnerConfig(epochs=400), seed=4)
        assert np.abs(model.parameters).max() < 0.05
        assert predict_proba(model, class_major(Xt)).max() <= 0.5 + 0.05

    def test_duplicated_examples_with_split_weights_match_uniform(self):
        X, _ = make_synthetic_dataset(80, 2, 4, margin=1.0, seed=5)
        uniform = np.full((80, 2), 0.5)
        X2 = np.repeat(X, 2, axis=0)
        split = one_hot(np.tile([0, 1], 80), 2)
        cfg = LearnerConfig(epochs=60)
        a = fit(class_major(X), uniform, cfg, seed=6)
        b = fit(class_major(X2), split, cfg, seed=6)
        assert_allclose(a.parameters, b.parameters, atol=1e-9)

    def test_deterministic_given_seed(self):
        X, y = make_synthetic_dataset(100, 2, 4, margin=2.0, seed=7)
        cfg = LearnerConfig(epochs=20, batch_size=16)
        a = fit(class_major(X), one_hot(y, 2), cfg, seed=8)
        b = fit(class_major(X), one_hot(y, 2), cfg, seed=8)
        assert_array_equal(a.parameters, b.parameters)

    def test_full_batch_objective_monotone_small_lr(self):
        from dataclasses import replace
        X, y = make_synthetic_dataset(120, 3, 5, margin=2.0, seed=9)
        soft = one_hot(y, 3)
        for cfg in (LearnerConfig(learning_rate=0.01, epochs=80),
                    replace(MLP, learning_rate=0.01, epochs=80)):
            # A full batch draws no shuffles, so fit(epochs=t) stops at the
            # t-th iterate of the one run.
            columns = class_major(X)
            losses = [_objective(_layers(fit(columns, soft,
                                             replace(cfg, epochs=t),
                                             seed=10).parameters,
                                         cfg.kind, 5, 3,
                                         cfg.hidden_units),
                                 columns.XA, soft.T, learn.L2_PENALTY)
                      for t in range(1, cfg.epochs + 1)]
            assert np.diff(losses).max() <= 1e-9

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        X, y = make_synthetic_dataset(50, 2, 4, margin=2.0, seed=11)
        cfg = LearnerConfig(learning_rate=1e12, epochs=50)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError,
                                                      match="non-finite"):
            fit(class_major(1e6 * X), one_hot(y, 2), cfg, seed=12)

    def test_rejects_zero_examples(self):
        # The mean over no examples would be 0/0.
        with pytest.raises(ValueError, match="at least one example"):
            fit(class_major(np.zeros((0, 3))), np.zeros((0, 2)),
                LearnerConfig(), seed=0)

    def test_minibatch_path_trains(self):
        X, y = make_synthetic_dataset(300, 2, 4, margin=6.0, seed=13)
        cfg = LearnerConfig(epochs=40, batch_size=32, learning_rate=0.2)
        model = fit(class_major(X), one_hot(y, 2), cfg, seed=14)
        assert zero_one_risk(model, class_major(X), y) <= 0.02


class TestClassMajorLayout:
    @pytest.mark.parametrize("cfg", [LearnerConfig(), MLP],
                             ids=["logistic", "mlp"])
    @pytest.mark.parametrize("batch_size", [0, 16], ids=["full", "batch16"])
    def test_fit_matches_the_row_major_oracle(self, monkeypatch, rng, cfg,
                                              batch_size):
        from dataclasses import replace
        # A start well away from zero, where tanh is not near-linear.
        monkeypatch.setattr(learn, "INIT_SCALE", 0.3)
        cfg = replace(cfg, epochs=30, batch_size=batch_size)
        X = rng.standard_normal((50, 5))     # 16 does not divide 50
        soft = rng.dirichlet(np.ones(3), size=50)
        model = fit(class_major(X), soft, cfg, seed=21)
        assert_allclose(model.parameters, fit_oracle(X, soft, cfg, seed=21),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cfg", [LearnerConfig(), MLP],
                             ids=["logistic", "mlp"])
    def test_column_gathered_batch_gradient_equals_row_gathered(self, rng,
                                                                 cfg):
        X = rng.standard_normal((40, 5))
        soft = rng.dirichlet(np.ones(4), size=40)
        params = rng.standard_normal(param_count(cfg, 5, 4))
        idx = rng.permutation(40)[:13]
        layers = _layers(params, cfg.kind, 5, 4, cfg.hidden_units)
        XA, ST = class_major(X).XA, np.ascontiguousarray(soft.T)
        grads = _gradient(layers, XA[:, idx], ST[:, idx], learn.L2_PENALTY)
        assert [g.shape for g in grads] == [W.shape for W in layers]
        assert_allclose(_flat(grads),
                        gradient_oracle(params, X[idx], soft[idx], cfg, 4),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("call", ["fit", "predict_proba",
                                      "zero_one_risk", "gradient_check"])
    def test_an_array_raises_a_type_error_that_names_class_major(self, call):
        cfg, X, soft = LearnerConfig(), np.ones((3, 2)), np.full((3, 2), 0.5)
        model = TrainedModel(parameters=np.zeros(param_count(cfg, 2, 2)),
                             kind=cfg.kind, K=2, d=2)
        args = {"fit": (X, soft, cfg, 0), "predict_proba": (model, X),
                "zero_one_risk": (model, X, [0, 1, 0]),
                "gradient_check": (cfg, X, soft, 0)}[call]
        with pytest.raises(TypeError,
                           match=r"built by learn\.class_major, got ndarray"):
            getattr(learn, call)(*args)

    def test_a_class_major_copy_is_read_only_and_ends_in_ones(self):
        columns = class_major(np.arange(6.0).reshape(3, 2))
        assert (len(columns), columns.d) == (3, 2)
        assert_array_equal(columns.XA, [[0, 2, 4], [1, 3, 5], [1, 1, 1]])
        with pytest.raises(ValueError, match="read-only"):
            columns.XA[0, 0] = 1.0

    @pytest.mark.parametrize("rows", [[0, 2, 3], [3, 0]],
                             ids=["ascending", "reordered"])
    def test_a_subset_is_the_copy_of_the_selected_rows(self, rows):
        X = np.arange(12.0).reshape(4, 3)
        subset = class_major(X).subset(rows)
        assert_array_equal(subset.XA, class_major(X[rows]).XA, strict=True)
        assert subset.XA.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            subset.XA[0, 0] = 1.0

    # The workloads' shapes: the paper's scenario (K=4, d=8, 300
    # full-batch epochs) and label-heavy's short fits (K=10, d=20, 5
    # epochs). Across seeds 0-3 the largest relative deviation from the
    # oracle was 4e-14 and 2e-13.
    @pytest.mark.parametrize("n, K, d, epochs",
                             [(1600, 4, 8, 300), (5000, 10, 20, 5)],
                             ids=["paper-k4", "label-heavy"])
    def test_fit_matches_the_oracle_at_the_workload_shapes(self, n, K, d,
                                                           epochs):
        X, y = make_synthetic_dataset(n, K, d, margin=2.0, seed=2)
        soft = (0.7 * one_hot(y, K)
                + 0.3 * np.random.default_rng(2).dirichlet(np.ones(K), size=n))
        cfg = LearnerConfig(epochs=epochs)
        assert_allclose(fit(class_major(X), soft, cfg, seed=5).parameters,
                        fit_oracle(X, soft, cfg, seed=5), rtol=1e-11, atol=0)


class TestPredictProba:
    def test_zero_parameters_give_uniform(self):
        cfg = LearnerConfig()
        model = TrainedModel(parameters=np.zeros(param_count(cfg, 4, 3)),
                             kind=cfg.kind, K=3, d=4)
        assert_allclose(predict_proba(model, class_major(np.ones((5, 4)))),
                        1 / 3, atol=1e-15)

    def test_hand_softmax(self):
        # W = [[1, -1], [0, 2]], b = [0.5, -0.5], x = [1, 2]
        params = np.array([1.0, -1.0, 0.0, 2.0, 0.5, -0.5])
        model = TrainedModel(parameters=params,
                             kind="multinomial_logistic", K=2, d=2)
        probs = predict_proba(model, class_major(np.array([[1.0, 2.0]])))
        p0 = 1.0 / (1.0 + math.exp(4.0))   # scores (-0.5, 3.5)
        assert_allclose(probs, [[p0, 1.0 - p0]], atol=1e-15)

    def test_rows_on_simplex_random_models(self, rng):
        for kind, cfg in (("logistic", LearnerConfig()), ("mlp", MLP)):
            params = rng.standard_normal(param_count(cfg, 5, 4))
            model = TrainedModel(parameters=params, kind=cfg.kind,
                                 K=4, d=5, hidden_units=cfg.hidden_units)
            probs = predict_proba(model,
                                  class_major(rng.standard_normal((30, 5))))
            assert probs.shape == (30, 4)
            assert probs.flags.c_contiguous and probs.flags.owndata
            assert probs.min() >= 0
            assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        cfg = LearnerConfig()
        model = TrainedModel(parameters=np.zeros(param_count(cfg, 4, 2)),
                             kind=cfg.kind, K=2, d=4)
        with pytest.raises(ValueError, match=r"\(n, 4\)"):
            predict_proba(model, class_major(np.ones((3, 5))))

    @pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
    def test_rejects_a_parameter_vector_of_the_wrong_length(self, extra):
        cfg = LearnerConfig()
        model = TrainedModel(
            parameters=np.zeros(param_count(cfg, 4, 2) + extra),
            kind=cfg.kind, K=2, d=4)
        with pytest.raises(ValueError, match="this model has 10 parameters"):
            predict_proba(model, class_major(np.ones((3, 4))))


class TestGradientCheck:
    def test_logistic_matches_finite_differences(self, rng):
        for trial in range(5):
            X = rng.standard_normal((16, 5))
            soft = rng.dirichlet(np.ones(3), size=16)
            err = gradient_check(LearnerConfig(), class_major(X), soft,
                                 seed=trial)
            assert err <= 1e-5

    def test_mlp_matches_finite_differences(self, rng):
        for trial in range(5):
            X = rng.standard_normal((12, 4))
            soft = rng.dirichlet(np.ones(2), size=12)
            err = gradient_check(MLP, class_major(X), soft, seed=trial)
            assert err <= 1e-4

    def test_zero_point_uniform_labels_zero_gradient(self):
        cfg = LearnerConfig()
        X = np.ones((8, 3))
        soft = np.full((8, 2), 0.5)
        params = np.zeros(param_count(cfg, 3, 2))
        grads = _gradient(_layers(params, cfg.kind, 3, 2, 0),
                          class_major(X).XA, soft.T, 0.0)
        assert_array_equal(grads[0][:, -1], 0.0)  # bias vanishes by symmetry


class TestZeroOneRisk:
    def test_exact_predictor(self):
        X, y = make_synthetic_dataset(400, 2, 4, margin=6.0, seed=15)
        model = fit(class_major(X), one_hot(y, 2), LearnerConfig(), seed=16)
        Xt, yt = make_synthetic_dataset(400, 2, 4, margin=6.0, seed=17)
        assert zero_one_risk(model, class_major(X), y) == 0.0
        assert zero_one_risk(model, class_major(Xt), yt) <= 0.02

    def test_a_tie_goes_to_the_lowest_class(self):
        # Zero weights leave the biases as the scores: (0, 1, 1) ties
        # classes 1 and 2, and all-zero parameters tie all three.
        cfg, K, d = LearnerConfig(), 3, 2
        params = np.zeros(param_count(cfg, d, K))
        flat = TrainedModel(parameters=params, kind=cfg.kind, K=K, d=d)
        params = params.copy()
        params[-2:] = 1.0
        tied = TrainedModel(parameters=params, kind=cfg.kind, K=K, d=d)
        X = class_major(np.random.default_rng(0).standard_normal((4, d)))
        probs = predict_proba(tied, X)
        assert_array_equal(probs[:, 1], probs[:, 2])
        assert zero_one_risk(tied, X, [1, 1, 1, 1]) == 0.0
        assert zero_one_risk(tied, X, [2, 2, 2, 2]) == 1.0
        assert zero_one_risk(flat, X, [0, 1, 2, 0]) == 0.5

    @pytest.mark.parametrize("cfg", [LearnerConfig(), MLP],
                             ids=["logistic", "mlp"])
    def test_the_risk_is_that_of_the_argmax_of_predict_proba(self, rng, cfg):
        from dataclasses import replace
        cfg = replace(cfg, epochs=20)
        X = class_major(rng.standard_normal((50, 5)))
        X_test = class_major(rng.standard_normal((30, 5)))
        soft = rng.dirichlet(np.ones(3), size=50)
        y, y_test = soft.argmax(axis=1), rng.integers(0, 3, size=30)
        model = fit(X, soft, cfg, seed=22)
        for features, truth in ((X, y), (X_test, y_test)):
            probs = predict_proba(model, features)
            risk = float(np.mean(np.argmax(probs, axis=1) != truth))
            assert zero_one_risk(model, features, truth) == risk

    def test_constant_model_on_balanced_labels(self):
        cfg = LearnerConfig()
        params = np.zeros(param_count(cfg, 3, 2))
        params[-2] = 10.0   # always predicts class 0
        model = TrainedModel(parameters=params, kind=cfg.kind,
                             K=2, d=3)
        X = np.zeros((100, 3))
        y = np.tile([0, 1], 50)
        assert zero_one_risk(model, class_major(X), y) == 0.5
