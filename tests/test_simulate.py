import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mbem.core import ROW_SUM_TOL, AnnotationSet
from mbem.learn import LearnerConfig, class_major, fit, zero_one_risk
from mbem.methods import one_hot
from mbem.seeding import RngSeed, as_seed
from mbem.simulate import (
    WorkerSkillModel,
    assign_workers,
    corrupt_labels,
    make_synthetic_dataset,
    sample_worker_pool,
    subsample_redundancy,
)

from conftest import corrupt_labels_oracle, random_confusions, records


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

    @pytest.mark.parametrize("label", [-1, 3])
    def test_rejects_a_true_label_outside_the_classes(self, label):
        # -1 would draw from class K-1's row; K would raise an IndexError.
        conf = np.tile(np.eye(3), (2, 1, 1))
        with pytest.raises(ValueError, match=re.escape(
                f"example 1 has true label {label}, outside [0, 3)")):
            corrupt_labels([0, label, 2], np.zeros((3, 1), dtype=int), conf,
                           seed=0)

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

    @pytest.mark.parametrize("stack", ["random", "hammer-spammer", "signed"])
    def test_labels_match_the_per_record_oracle(self, rng, stack):
        K, m, n, r = 4, 6, 300, 3
        if stack == "random":
            conf = random_confusions(rng, m, K)
        elif stack == "hammer-spammer":
            model = WorkerSkillModel(kind="classwise_hammer_spammer",
                                     gamma=0.5, K=K)
            conf = sample_worker_pool(model, m, seed=5)
        else:
            # Identity rows moved by ROW_SUM_TOL, the most check_confusions
            # allows: the true class's entry is 1 + tol, the next one's -tol.
            conf = np.tile(np.eye(K), (m, 1, 1))
            k = np.arange(K)
            conf[:, k, k] += ROW_SUM_TOL
            conf[:, k, (k + 1) % K] -= ROW_SUM_TOL
        truth = rng.integers(0, K, size=n)
        assignment = assign_workers(n, r, m, seed=6)
        ann = corrupt_labels(truth, assignment, conf, seed=7)
        assert_array_equal(ann.labels.reshape(n, r),
                           corrupt_labels_oracle(truth, assignment, conf, 7))

    def test_a_draw_on_a_running_sum_or_past_a_dip_counts_as_the_oracle(self):
        # One worker per example, each row built around its record's own
        # uniform u. Even records: the first running sum is u itself, which
        # u does not exceed, so label 0. Odd records: the first sum is just
        # above u and the second dips below it through a negative entry
        # that check_confusions accepts, so label 1, where a search over
        # a monotone cdf would give 0.
        n, K, seed = 40, 3, 8
        u = as_seed(seed).child("corrupt").generator().random(n)
        conf = np.full((n, K, K), 1.0 / K)
        tie, dip = u[0::2], u[1::2]
        eps = ROW_SUM_TOL / 4
        conf[0::2, 0] = np.stack([tie, 1 - tie, np.zeros_like(tie)], axis=1)
        conf[1::2, 0] = np.stack([dip + eps, np.full_like(dip, -2 * eps),
                                  1 - dip + eps], axis=1)
        truth = np.zeros(n, dtype=np.int64)
        assignment = np.arange(n)[:, None]
        ann = corrupt_labels(truth, assignment, conf, seed)
        assert_array_equal(ann.labels, np.tile([0, 1], n // 2))
        oracle = corrupt_labels_oracle(truth, assignment, conf, seed)
        assert_array_equal(ann.labels[:, None], oracle)

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
        model = fit(class_major(X), one_hot(y, 2), LearnerConfig(epochs=100),
                    seed=3)
        assert zero_one_risk(model, class_major(Xt), yt) >= 0.5 - 0.05

    def test_margin_six_is_learnable(self):
        X, y = make_synthetic_dataset(2000, 2, 4, margin=6.0, seed=4)
        Xt, yt = make_synthetic_dataset(2000, 2, 4, margin=6.0, seed=5)
        model = fit(class_major(X), one_hot(y, 2), LearnerConfig(), seed=6)
        assert zero_one_risk(model, class_major(Xt), yt) <= 0.02

    def test_requires_enough_dimensions(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(10, 5, 3, margin=1.0, seed=0)


class TestSubsample:
    def test_keeps_exactly_r_per_example(self):
        workers = np.tile(np.arange(4), (6, 1))
        labels = np.ones((6, 4), dtype=int)
        ann = AnnotationSet.from_tables(workers, labels, m=4, K=2)
        sub = subsample_redundancy(ann, np.arange(ann.n), 2, seed=0)
        assert_array_equal(sub.redundancy_counts(), np.full(6, 2))
        original = set(records(ann))
        assert all(rec in original for rec in records(sub))

    def test_requires_enough_annotations(self):
        # Examples 1 and 2 carry one annotation each; only a given one
        # counts, and the message names it by its index in the pool.
        # Indices outside the pool or repeated fail before that check.
        ann = AnnotationSet.from_records(
            [(0, 0, 0), (1, 0, 1), (0, 1, 1), (2, 1, 0)], n=3, m=2, K=2)
        for examples, message in (
                ([0, 1, 2], "example 1 has fewer than 2 annotations"),
                ([2, 0], "example 2 has fewer than 2 annotations"),
                ([-1], "example index -1 outside [0, 3)"),
                ([0, 3], "example index 3 outside [0, 3)"),
                ([0, 0], "example index 0 given more than once")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                subsample_redundancy(ann, examples, 2, seed=0)
        subsample_redundancy(ann, [0], 2, seed=0)

    def test_deterministic(self):
        workers = np.tile(np.arange(5), (8, 1))
        labels = (workers + 1) % 2
        ann = AnnotationSet.from_tables(workers, labels, m=5, K=2)
        a = subsample_redundancy(ann, np.arange(ann.n), 3, seed=RngSeed(1))
        b = subsample_redundancy(ann, np.arange(ann.n), 3, seed=RngSeed(1))
        assert records(a) == records(b)

    @pytest.mark.parametrize("low,r", [(1, 1), (3, 1), (3, 2), (3, 3)])
    def test_mixed_redundancy_keeps_r_distinct_records(self, rng, low, r):
        counts = rng.integers(low, 7, size=40)
        counts[:2] = low, 6
        example_ids = rng.permutation(np.repeat(np.arange(40), counts))
        # worker id = record index, so each kept record names its original
        ann = AnnotationSet(n=40, m=example_ids.size, K=2,
                            example_ids=example_ids,
                            worker_ids=np.arange(example_ids.size),
                            labels=example_ids % 2)
        # The whole pool, and a proper subset in shuffled order.
        for examples in (np.arange(40), rng.permutation(40)[:25]):
            sub = subsample_redundancy(ann, examples, r, seed=RngSeed(5))
            assert_array_equal(sub.redundancy_counts(),
                               np.full(examples.size, r))
            kept = sub.worker_ids
            assert np.unique(kept).size == kept.size
            assert_array_equal(ann.example_ids[kept],
                               examples[sub.example_ids])
            assert_array_equal(np.diff(kept) > 0, True)   # original order

        # Keys follow the records, not the examples' numbering: sorting the
        # subset keeps the same records, and those are the ones kept from
        # the set restricted to the subset beforehand.
        ordered = np.sort(examples)
        in_order = subsample_redundancy(ann, ordered, r, seed=RngSeed(5))
        assert_array_equal(in_order.worker_ids, kept)
        mask = np.isin(example_ids, ordered)
        restricted = AnnotationSet(
            n=ordered.size, m=ann.m, K=2,
            example_ids=np.searchsorted(ordered, example_ids[mask]),
            worker_ids=ann.worker_ids[mask], labels=ann.labels[mask])
        assert records(subsample_redundancy(
            restricted, np.arange(ordered.size), r, seed=RngSeed(5))) == \
            records(in_order)

    def test_r_equal_to_every_count_returns_the_input(self, rng):
        workers = rng.integers(0, 6, size=(10, 4))
        ann = AnnotationSet.from_tables(workers, workers % 3, m=6, K=3)
        p = rng.permutation(len(ann))
        shuffled = AnnotationSet(n=10, m=6, K=3,
                                 example_ids=ann.example_ids[p],
                                 worker_ids=ann.worker_ids[p],
                                 labels=ann.labels[p])
        for full in (ann, shuffled):
            sub = subsample_redundancy(full, np.arange(10), 4, seed=RngSeed(2))
            assert records(sub) == records(full)

    @pytest.mark.parametrize("r", [1, 2])
    def test_each_record_is_kept_with_probability_r_over_count(self, r):
        counts = np.array([2, 3, 4, 6])
        example_ids = np.random.default_rng(3).permutation(
            np.repeat(np.arange(4), counts))
        ann = AnnotationSet(n=4, m=15, K=2, example_ids=example_ids,
                            worker_ids=np.arange(15), labels=np.zeros(15))
        draws = 4000
        kept = np.zeros(15)
        for seed in range(draws):
            kept[subsample_redundancy(ann, np.arange(4), r,
                                      seed=RngSeed(seed)).worker_ids] += 1
        p = r / counts[example_ids]
        se = np.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(kept / draws - p) <= 5 * se)
