import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mbem import io as mbio
from mbem.core import AnnotationSet
from mbem.harness import read_sweep_csv
from mbem.learn import LearnerConfig, fit, predict_proba
from mbem.methods import one_hot
from mbem.simulate import make_synthetic_dataset


def test_annotations_round_trip(tmp_path, rng):
    records = [(i, int(rng.integers(0, 5)), int(rng.integers(0, 3)))
               for i in range(20) for _ in range(2)]
    ann = AnnotationSet.from_records(records, n=20, m=5, K=3)
    path = tmp_path / "annotations.csv"
    mbio.write_annotations(path, ann)
    loaded = mbio.read_annotations(path, n=20, m=5, K=3)
    assert loaded.records == ann.records
    inferred = mbio.read_annotations(path)
    assert inferred.n == 20


def test_truth_round_trip(tmp_path, rng):
    truth = rng.integers(0, 4, size=30)
    path = tmp_path / "truth.csv"
    mbio.write_truth(path, truth)
    assert_array_equal(mbio.read_truth(path), truth)


def test_soft_labels_round_trip(tmp_path, rng):
    soft = rng.dirichlet(np.ones(3), size=15)
    path = tmp_path / "soft.csv"
    mbio.write_soft_labels(path, soft)
    header = path.read_text().splitlines()[0]
    assert header == "example_id,p0,p1,p2"
    assert_allclose(mbio.read_soft_labels(path), soft, atol=1e-11)


def test_confusions_round_trip(tmp_path, rng):
    conf = rng.dirichlet(np.ones(3), size=(4, 3))
    path = tmp_path / "workers.csv"
    mbio.write_confusions(path, conf)
    assert path.read_text().splitlines()[0] == "worker_id,k,s,prob"
    assert_allclose(mbio.read_confusions(path), conf, atol=1e-11)


def test_features_round_trip_exact(tmp_path):
    X, _ = make_synthetic_dataset(12, 2, 5, margin=3.0, seed=0)
    path = tmp_path / "features.csv"
    mbio.write_features(path, X)
    assert_array_equal(mbio.read_features(path), X)


def test_model_checkpoint_round_trip(tmp_path):
    X, y = make_synthetic_dataset(60, 2, 4, margin=3.0, seed=1)
    for cfg in (LearnerConfig(epochs=30),
                LearnerConfig(learner_kind="one_hidden_layer_mlp",
                              hidden_units=5, epochs=30)):
        model = fit(X, one_hot(y, 2), cfg, seed=2)
        out = tmp_path / cfg.learner_kind
        mbio.save_model(out, model)
        loaded = mbio.load_model(out)
        assert loaded.learner_kind == model.learner_kind
        assert (loaded.K, loaded.d, loaded.hidden_units) == \
            (model.K, model.d, model.hidden_units)
        assert_array_equal(loaded.parameters, model.parameters)
        assert_array_equal(predict_proba(loaded, X), predict_proba(model, X))


@pytest.mark.parametrize("reader", [mbio.read_truth, mbio.read_features,
                                    mbio.read_soft_labels])
@pytest.mark.parametrize("ids", [[0, 0], [0, 2]], ids=["duplicate", "gap"])
def test_readers_reject_malformed_example_ids(tmp_path, reader, ids):
    path = tmp_path / "table.csv"
    path.write_text("example_id,v\n" + "".join(f"{i},1\n" for i in ids))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        reader(path)


def test_read_sweep_csv_rejects_a_wrong_header(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("method,r,seed,n_train,test_risk,train_risk,error\n"
                    "mv,1,0,100,0.1,0.1,\n")
    with pytest.raises(ValueError, match="header"):
        read_sweep_csv(path)
