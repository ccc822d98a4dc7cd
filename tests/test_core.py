import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mbem import core
from mbem.core import (
    AnnotationSet,
    check_confusions,
    classic_em,
    estimate_confusions_and_prior,
    hard_labels,
    majority_vote_init,
    posterior,
)

from conftest import (
    classic_em_tol_oracle,
    estimate_add_at,
    estimate_oracle,
    majority_vote_add_at,
    posterior_add_at,
    posterior_oracle,
    random_confusions,
    random_instance,
    records,
)


IDENTITY2 = np.eye(2)[None]
UNINFORMATIVE2 = np.full((1, 2, 2), 0.5)


class TestAnnotationSet:
    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError, match="worker_id"):
            AnnotationSet.from_records([(0, 5, 0)], n=1, m=2, K=2)
        with pytest.raises(ValueError, match="label"):
            AnnotationSet.from_records([(0, 0, 3)], n=1, m=1, K=2)

    def test_rejects_uncovered_example(self):
        with pytest.raises(ValueError, match="example 1"):
            AnnotationSet.from_records([(0, 0, 0), (2, 0, 1)], n=3, m=1, K=2)

    def test_redundancy_counts(self):
        ann = AnnotationSet.from_records(
            [(0, 0, 0), (0, 1, 1), (1, 0, 1)], n=2, m=2, K=2)
        assert_array_equal(ann.redundancy_counts(), [2, 1])

    def test_from_tables_matches_records(self):
        workers = np.array([[0, 1], [1, 1]])
        labels = np.array([[1, 0], [0, 0]])
        ann = AnnotationSet.from_tables(workers, labels, m=2, K=2)
        assert records(ann) == [(0, 0, 1), (0, 1, 0), (1, 1, 0), (1, 1, 0)]


class TestMajorityVote:
    def test_two_one_split(self):
        ann = AnnotationSet.from_records(
            [(0, 0, 0), (0, 1, 0), (0, 2, 1)], n=1, m=3, K=2)
        assert_allclose(majority_vote_init(ann), [[2 / 3, 1 / 3]])

    def test_single_label_is_one_hot(self):
        ann = AnnotationSet.from_records([(0, 0, 1)], n=1, m=1, K=2)
        assert_array_equal(majority_vote_init(ann), [[0.0, 1.0]])

    def test_symmetric_tie(self):
        ann = AnnotationSet.from_records([(0, 0, 0), (0, 1, 1)], n=1, m=2, K=2)
        assert_array_equal(majority_vote_init(ann), [[0.5, 0.5]])


class TestPosterior:
    def test_perfect_worker_forces_delta(self):
        ann = AnnotationSet.from_records([(0, 0, 0)], n=1, m=1, K=2)
        # the fixed confusion clamp leaves exactly its 1e-6 leak
        assert_allclose(posterior(ann, IDENTITY2),
                        [[1 - 1e-6, 1e-6]], rtol=0, atol=1e-15)

    def test_uninformative_worker_returns_prior(self):
        # the prior is uniform
        for labels in ([(0, 0, 0)], [(0, 0, 1)], [(0, 0, 0), (0, 0, 1)]):
            ann = AnnotationSet.from_records(labels, n=1, m=1, K=2)
            assert_allclose(posterior(ann, UNINFORMATIVE2), [[0.5, 0.5]],
                            atol=1e-12)

    def test_two_worker_hand_value(self):
        conf = np.array([[[0.8, 0.2], [0.3, 0.7]],
                         [[0.6, 0.4], [0.4, 0.6]]])
        ann = AnnotationSet.from_records([(0, 0, 0), (0, 1, 1)], n=1, m=2, K=2)
        assert_allclose(posterior(ann, conf), [[0.64, 0.36]], atol=1e-12)

    def test_identity_unanimous_one_hot(self):
        for K in (2, 3):
            conf = np.tile(np.eye(K), (3, 1, 1))
            ann = AnnotationSet.from_records(
                [(0, w, 1) for w in range(3)], n=1, m=3, K=K)
            assert_allclose(posterior(ann, conf), np.eye(K)[[1]], atol=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
           st.integers(1, 3), st.integers(2, 3))
    def test_matches_bruteforce_enumeration(self, seed, n, r_max, K):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        ann = random_instance(rng, n, m, K, r_max)
        conf = random_confusions(rng, m, K)
        expected = posterior_oracle(ann, conf)
        assert np.abs(posterior(ann, conf) - expected).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_rows_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n, m, K = 6, 4, int(rng.integers(2, 5))
        ann = random_instance(rng, n, m, K, 4)
        soft = posterior(ann, random_confusions(rng, m, K))
        assert soft.min() >= 0
        assert_allclose(soft.sum(axis=1), 1.0, atol=1e-9)
        # exact 0/1 rows and contradicting labels leave every row finite
        # and on the simplex
        hard = np.eye(K)[rng.integers(0, K, size=(m, K))]
        for conf in (hard, np.tile(np.eye(K), (m, 1, 1))):
            soft = posterior(ann, conf)
            assert np.isfinite(soft).all()
            assert soft.min() >= 0
            assert_allclose(soft.sum(axis=1), 1.0, atol=1e-9)
        mv = majority_vote_init(ann)
        assert mv.min() >= 0
        assert_allclose(mv.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
    def test_class_permutation_equivariance(self, seed, K):
        rng = np.random.default_rng(seed)
        n, m = 5, 3
        ann = random_instance(rng, n, m, K, 3)
        conf = random_confusions(rng, m, K)
        perm = rng.permutation(K)          # new class k holds old class perm[k]
        inv = np.argsort(perm)
        ann_p = AnnotationSet(n=ann.n, m=ann.m, K=K,
                              example_ids=ann.example_ids,
                              worker_ids=ann.worker_ids,
                              labels=inv[ann.labels])
        conf_p = conf[:, perm][:, :, perm]
        base = posterior(ann, conf)
        permuted = posterior(ann_p, conf_p)
        assert_allclose(permuted, base[:, perm], atol=1e-12)


class TestEstimate:
    def test_hand_counts(self):
        # worker 0 labels three examples (0, 1, 1) whose hard labels are (0, 0, 1)
        ann = AnnotationSet.from_records(
            [(0, 0, 0), (1, 0, 1), (2, 0, 1)], n=3, m=1, K=2)
        conf, prior = estimate_confusions_and_prior(ann, [0, 0, 1], smoothing=0)
        assert_allclose(conf[0], [[0.5, 0.5], [0.0, 1.0]])
        assert_allclose(prior, [2 / 3, 1 / 3])

    def test_perfect_agreement_gives_identity(self):
        ann = AnnotationSet.from_records(
            [(0, 0, 0), (1, 0, 1), (2, 0, 0)], n=3, m=1, K=2)
        conf, _ = estimate_confusions_and_prior(ann, [0, 1, 0], smoothing=0)
        assert_array_equal(conf[0], np.eye(2))

    def test_unvisited_class_laplace_fallback(self):
        ann = AnnotationSet.from_records([(0, 0, 0)], n=1, m=1, K=3)
        conf, _ = estimate_confusions_and_prior(ann, [0], smoothing=1)
        assert_allclose(conf[0, 1], [1 / 3, 1 / 3, 1 / 3])
        assert_allclose(conf[0, 2], [1 / 3, 1 / 3, 1 / 3])
        assert_array_equal(conf, estimate_add_at(ann, [0], smoothing=1)[0],
                           strict=True)

    def test_unvisited_class_flagged_without_smoothing(self):
        ann = AnnotationSet.from_records([(0, 0, 0)], n=1, m=1, K=2)
        with pytest.warns(RuntimeWarning, match="no annotations"):
            conf, _ = estimate_confusions_and_prior(ann, [0], smoothing=0)
        assert_allclose(conf[0, 1], [0.5, 0.5])
        with pytest.warns(RuntimeWarning, match="no annotations"):
            want, _ = estimate_add_at(ann, [0], smoothing=0)
        assert_array_equal(conf, want, strict=True)

    @pytest.mark.parametrize("smoothing", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_smoothing(self, smoothing):
        ann = AnnotationSet.from_records([(0, 0, 0)], n=1, m=1, K=2)
        with pytest.raises(ValueError, match="smoothing must be nonnegative"):
            estimate_confusions_and_prior(ann, [0], smoothing=smoothing)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
    def test_matches_counting_oracle(self, seed, K):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        ann = random_instance(rng, n, m, K, 3)
        t = rng.integers(0, K, size=n)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            conf, prior = estimate_confusions_and_prior(ann, t, smoothing=0)
        conf_o, prior_o = estimate_oracle(ann, t, smoothing=0)
        assert_allclose(conf, conf_o, atol=1e-12)
        assert_allclose(prior, prior_o, atol=1e-12)


def _shuffled(ann, rng):
    p = rng.permutation(len(ann))
    return AnnotationSet(n=ann.n, m=ann.m, K=ann.K, example_ids=ann.example_ids[p],
                         worker_ids=ann.worker_ids[p], labels=ann.labels[p])


LAYOUTS = {
    "variable-r": lambda rng: random_instance(rng, 300, 9, 5, 9),
    "shuffled": lambda rng: _shuffled(random_instance(rng, 300, 9, 5, 9), rng),
    "r1": lambda rng: random_instance(rng, 300, 9, 5, 1),
    "uniform-r3": lambda rng: random_instance(rng, 300, 9, 5, 3, variable_r=False),
}


class TestKernelsMatchAddAt:
    """The record-index kernels give the bits of the np.add.at forms."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_posterior(self, rng, layout):
        ann = LAYOUTS[layout](rng)
        conf = random_confusions(rng, ann.m, ann.K)
        assert_array_equal(posterior(ann, conf), posterior_add_at(ann, conf),
                           strict=True)
        # the clamp keeps exact zeros in the confusions away from the log
        conf[:, 0, 1] = 0.0
        conf /= conf.sum(axis=2, keepdims=True)
        assert_array_equal(posterior(ann, conf), posterior_add_at(ann, conf),
                           strict=True)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_estimate(self, rng, layout):
        ann = LAYOUTS[layout](rng)
        t = rng.integers(0, ann.K, size=ann.n)
        for smoothing in (1.0, 0.0):
            got = estimate_confusions_and_prior(ann, t, smoothing=smoothing)
            want = estimate_add_at(ann, t, smoothing=smoothing)
            for a, b in zip(got, want):
                assert_array_equal(a, b, strict=True)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_majority_vote(self, rng, layout):
        ann = LAYOUTS[layout](rng)
        assert_array_equal(majority_vote_init(ann), majority_vote_add_at(ann),
                           strict=True)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_classic_em(self, rng, layout):
        # stopping on repeated labels saves the last update of the
        # tolerance loop, which could only reproduce the one before it
        ann = LAYOUTS[layout](rng)
        for a, b in zip(classic_em(ann), classic_em_tol_oracle(ann),
                        strict=True):
            assert_array_equal(a, b, strict=True)

    def test_classic_em_builds_the_record_index_once(self, rng, monkeypatch):
        ann = random_instance(rng, 50, 5, 3, 4)
        assert "_layers" not in vars(ann)   # not built at construction
        indexes = []

        def spy(ann, *args, **kwargs):
            result = posterior(ann, *args, **kwargs)
            indexes.append(vars(ann)["_layers"])
            return result

        monkeypatch.setattr(core, "posterior", spy)
        classic_em(ann)
        assert len(indexes) >= 2
        assert all(index is indexes[0] for index in indexes)


class TestHardLabels:
    def test_argmax(self):
        assert_array_equal(hard_labels(np.array([[0.2, 0.8]])), [1])

    def test_tie_breaks_low(self):
        assert_array_equal(hard_labels(np.array([[0.5, 0.5]])), [0])

    def test_posterior_hand_value_row(self):
        assert_array_equal(hard_labels(np.array([[0.64, 0.36]])), [0])


class TestClassicEm:
    def test_single_label_makes_workers_perfect(self, rng):
        n, m, K = 60, 4, 3
        records = [(i, int(rng.integers(0, m)), int(rng.integers(0, K)))
                   for i in range(n)]
        ann = AnnotationSet.from_records(records, n=n, m=m, K=K)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, conf = classic_em(ann)
        visited = np.zeros((m, K), dtype=bool)
        for i, w, z in records:
            visited[w, z] = True   # r=1: the argmax label equals the annotation
        for a in range(m):
            for k in range(K):
                if visited[a, k]:
                    assert conf[a, k, k] == 1.0

    def test_identity_workers_converge_to_unanimous_delta(self):
        truth = np.array([0, 1, 1, 0])
        records = [(i, w, int(truth[i])) for i in range(4) for w in range(2)]
        ann = AnnotationSet.from_records(records, n=4, m=2, K=2)
        soft, _ = classic_em(ann)
        assert_allclose(soft, np.eye(2)[truth], atol=1e-6)

    def test_matches_straightline_oracle(self):
        ann = AnnotationSet.from_records(
            [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0), (2, 0, 1), (2, 1, 1)],
            n=3, m=2, K=2)
        soft, conf = classic_em(ann)

        # independent re-implementation of the two update equations
        triples = records(ann)
        n, m, K = 3, 2, 2
        est = [[0.0, 0.0] for _ in range(n)]
        for i, _, z in triples:
            est[i][z] += 0.5       # every example has exactly two annotations
        for _ in range(100):
            t = [0 if row[0] >= row[1] else 1 for row in est]
            cm = [[[0.0, 0.0], [0.0, 0.0]] for _ in range(m)]
            den = [[0.0, 0.0] for _ in range(m)]
            for i, w, z in triples:
                cm[w][t[i]][z] += 1.0
                den[w][t[i]] += 1.0
            for a in range(m):
                for k in range(K):
                    if den[a][k] > 0:
                        cm[a][k] = [v / den[a][k] for v in cm[a][k]]
                    else:
                        cm[a][k] = [0.5, 0.5]
            clamped = [[[min(max(v, 1e-6), 1 - 1e-6) for v in row]
                        for row in mat] for mat in cm]
            clamped = [[[v / sum(row) for v in row] for row in mat]
                       for mat in clamped]
            new_est = []
            for i in range(n):
                nums = []
                for k in range(K):
                    p = 0.5
                    for e, w, z in triples:
                        if e == i:
                            p *= clamped[w][k][z]
                    nums.append(p)
                total = sum(nums)
                new_est.append([v / total for v in nums])
            delta = max(abs(new_est[i][k] - est[i][k])
                        for i in range(n) for k in range(K))
            est = new_est
            if delta < 1e-8:
                break

        assert_allclose(soft, est, atol=1e-9)
        assert_allclose(conf, cm, atol=1e-9)

    def test_estimated_prior_tracks_class_frequencies(self):
        truth = np.array([0, 0, 0, 1, 2, 2, 0, 1, 0, 0])
        records = [(i, w, int(truth[i])) for i in range(10) for w in range(2)]
        ann = AnnotationSet.from_records(records, n=10, m=2, K=3)
        soft, _ = classic_em(ann)
        assert_array_equal(hard_labels(soft), truth)
        # the prior estimated against these labels
        _, prior = estimate_confusions_and_prior(ann, hard_labels(soft), 0.0)
        assert_allclose(prior, [0.6, 0.2, 0.2], atol=1e-15)

    def test_deterministic(self, rng):
        ann = random_instance(rng, 12, 3, 2, 3)
        first = classic_em(ann)
        second = classic_em(ann)
        for a, b in zip(first, second):
            assert_array_equal(a, b)

    def test_annotation_set_runs_it_once(self, rng, monkeypatch):
        ann = random_instance(rng, 12, 3, 2, 3)
        calls = []

        def counted(ann):
            calls.append(ann)
            return classic_em(ann)

        monkeypatch.setattr(core, "classic_em", counted)
        first = ann.classic_em
        assert ann.classic_em is first
        assert calls == [ann]
        for a, b in zip(first, classic_em(ann)):
            assert_array_equal(a, b, strict=True)



def test_check_confusions_rejects_nan():
    conf = np.tile(np.eye(2), (3, 1, 1))
    conf[1, 1] = [np.nan, 1.0]
    for bad in (np.full_like(conf, np.nan), conf):
        with pytest.raises(ValueError, match="confusion"):
            check_confusions(bad)
