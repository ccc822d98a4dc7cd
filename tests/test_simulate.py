import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mbem.core import AnnotationSet
from mbem.learn import LearnerConfig, fit, zero_one_risk
from mbem.methods import one_hot
from mbem.seeding import RngSeed
from mbem.simulate import (
    WorkerSkillModel,
    assign_workers,
    corrupt_labels,
    make_synthetic_dataset,
    sample_worker_pool,
    subsample_redundancy,
)

from conftest import records


def hs_model(gamma, K=2):
    return WorkerSkillModel(kind="hammer_spammer", gamma=gamma, K=K)


class TestWorkerPool:
    def test_gamma_one_all_hammers(self):
        conf = sample_worker_pool(hs_model(1.0, K=3), 10, seed=0)
        assert_array_equal(conf, np.tile(np.eye(3), (10, 1, 1)))

    def test_gamma_zero_all_spammers(self):
        conf = sample_worker_pool(hs_model(0.0, K=4), 10, seed=0)
        assert_array_equal(conf, np.full((10, 4, 4), 0.25))

    def test_hammer_fraction_concentrates(self):
        m, gamma = 1000, 0.2
        conf = sample_worker_pool(hs_model(gamma, K=3), m, seed=7)
        hammers = np.isclose(conf[:, 0, 0], 1.0)
        bound = 3 * np.sqrt(gamma * (1 - gamma) / m)
        assert abs(hammers.mean() - gamma) <= bound

    def test_classwise_rows_are_identity_or_uniform(self):
        model = WorkerSkillModel(kind="classwise_hammer_spammer", gamma=0.5, K=3)
        conf = sample_worker_pool(model, 200, seed=3)
        eye = np.eye(3)
        for a in range(conf.shape[0]):
            for k in range(3):
                row = conf[a, k]
                assert np.array_equal(row, eye[k]) or np.allclose(row, 1 / 3)
        # both row kinds should occur at gamma=0.5 with 600 rows
        diag = conf[:, np.arange(3), np.arange(3)]
        assert (diag == 1.0).any() and np.isclose(diag, 1 / 3).any()

    def test_rejects_bad_model(self):
        with pytest.raises(ValueError):
            WorkerSkillModel(kind="adversarial", gamma=0.5, K=2)
        with pytest.raises(ValueError):
            WorkerSkillModel(kind="hammer_spammer", gamma=1.5, K=2)


class TestAssignment:
    def test_single_worker(self):
        assert_array_equal(assign_workers(5, 2, 1, seed=0), np.zeros((5, 2)))

    def test_counts_concentrate(self):
        n, r, m = 10000, 3, 100
        table = assign_workers(n, r, m, seed=11)
        counts = np.bincount(table.ravel(), minlength=m)
        expectation = n * r / m
        bound = 3 * np.sqrt(n * r * (1 / m) * (1 - 1 / m))
        assert np.abs(counts - expectation).max() <= bound

    def test_fixed_seed_reproduces(self):
        a = assign_workers(50, 3, 7, seed=RngSeed(5, 9))
        b = assign_workers(50, 3, 7, seed=RngSeed(5, 9))
        assert_array_equal(a, b)


class TestCorruption:
    def test_identity_workers_copy_truth(self, rng):
        truth = rng.integers(0, 3, size=40)
        conf = np.tile(np.eye(3), (4, 1, 1))
        ann = corrupt_labels(truth, assign_workers(40, 2, 4, seed=1), conf, seed=2)
        assert_array_equal(ann.labels, truth[ann.example_ids])

    def test_uniform_workers_balance_labels(self):
        n = 10000
        truth = np.zeros(n, dtype=int)
        conf = np.full((1, 2, 2), 0.5)
        ann = corrupt_labels(truth, np.zeros((n, 1), dtype=int), conf, seed=3)
        freq = ann.labels.mean()
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_flip_rate_matches_row(self):
        n = 10000
        truth = np.zeros(n, dtype=int)   # all class 0
        conf = np.array([[[0.7, 0.3], [0.4, 0.6]]])
        ann = corrupt_labels(truth, np.zeros((n, 1), dtype=int), conf, seed=4)
        flip = ann.labels.mean()
        assert abs(flip - 0.3) <= 3 * np.sqrt(0.21 / n)

    def test_empirical_confusion_converges(self):
        # one worker, >= 5000 annotations per class cell
        per_class = 5000
        truth = np.repeat([0, 1], per_class)
        conf = np.array([[[0.7, 0.3], [0.4, 0.6]]])
        ann = corrupt_labels(truth, np.zeros((2 * per_class, 1), dtype=int),
                             conf, seed=5)
        empirical = np.zeros((2, 2))
        np.add.at(empirical, (truth[ann.example_ids], ann.labels), 1.0)
        empirical /= empirical.sum(axis=1, keepdims=True)
        assert np.abs(empirical - conf[0]).max() <= 3 * np.sqrt(0.25 / per_class)

    def test_bit_reproducible(self):
        truth = np.arange(20) % 2
        conf = np.full((3, 2, 2), 0.5)
        seed = RngSeed(99)
        a = corrupt_labels(truth, assign_workers(20, 2, 3, seed), conf, seed)
        b = corrupt_labels(truth, assign_workers(20, 2, 3, seed), conf, seed)
        assert_array_equal(a.labels, b.labels)
        assert_array_equal(a.worker_ids, b.worker_ids)


class TestSyntheticDataset:
    def test_class_counts_balanced(self):
        for n in (10, 11, 13):
            _, truth = make_synthetic_dataset(n, 3, 5, margin=2.0, seed=0)
            counts = np.bincount(truth, minlength=3)
            assert counts.max() - counts.min() <= 1

    def test_margin_zero_carries_no_signal(self):
        X, y = make_synthetic_dataset(3000, 2, 4, margin=0.0, seed=1)
        Xt, yt = make_synthetic_dataset(3000, 2, 4, margin=0.0, seed=2)
        model = fit(X, one_hot(y, 2), LearnerConfig(epochs=100), seed=3)
        assert zero_one_risk(model, Xt, yt) >= 0.5 - 0.05

    def test_margin_six_is_learnable(self):
        X, y = make_synthetic_dataset(2000, 2, 4, margin=6.0, seed=4)
        Xt, yt = make_synthetic_dataset(2000, 2, 4, margin=6.0, seed=5)
        model = fit(X, one_hot(y, 2), LearnerConfig(), seed=6)
        assert zero_one_risk(model, Xt, yt) <= 0.02

    def test_requires_enough_dimensions(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(10, 5, 3, margin=1.0, seed=0)


class TestSubsample:
    def test_keeps_exactly_r_per_example(self):
        workers = np.tile(np.arange(4), (6, 1))
        labels = np.ones((6, 4), dtype=int)
        ann = AnnotationSet.from_tables(workers, labels, m=4, K=2)
        sub = subsample_redundancy(ann, 2, seed=0)
        assert_array_equal(sub.redundancy_counts(), np.full(6, 2))
        original = set(records(ann))
        assert all(rec in original for rec in records(sub))

    def test_requires_enough_annotations(self):
        ann = AnnotationSet.from_records([(0, 0, 0)], n=1, m=1, K=2)
        with pytest.raises(ValueError, match="fewer than 2"):
            subsample_redundancy(ann, 2, seed=0)

    def test_deterministic(self):
        workers = np.tile(np.arange(5), (8, 1))
        labels = (workers + 1) % 2
        ann = AnnotationSet.from_tables(workers, labels, m=5, K=2)
        a = subsample_redundancy(ann, 3, seed=RngSeed(1))
        b = subsample_redundancy(ann, 3, seed=RngSeed(1))
        assert records(a) == records(b)
