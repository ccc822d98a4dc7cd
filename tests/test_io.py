import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mbem import io as mbio
from mbem.core import AnnotationSet
from mbem.learn import LearnerConfig, fit, predict_proba
from mbem.methods import one_hot
from mbem.simulate import make_synthetic_dataset

from conftest import (
    fit_oracle,
    forward_oracle,
    records,
    write_annotations_oracle,
    write_confusions_oracle,
    write_features_oracle,
    write_soft_labels_oracle,
    write_truth_oracle,
)

# Values that a number format can get wrong: nan, the infinities, a
# negative zero, the smallest subnormal, the largest double, and values
# that need all 17 significant digits to read back.
AWKWARD = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                    1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 1e-300,
                    -1e300, 2.5])


def test_annotations_round_trip(tmp_path, rng):
    triples = [(i, int(rng.integers(0, 5)), int(rng.integers(0, 3)))
               for i in range(20) for _ in range(2)]
    ann = AnnotationSet.from_records(triples, n=20, m=5, K=3)
    path = tmp_path / "annotations.csv"
    mbio.write_annotations(path, ann)
    loaded = mbio.read_annotations(path)
    assert records(loaded) == records(ann)
    assert loaded.n == 20


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
    synthetic, _ = make_synthetic_dataset(12, 2, 5, margin=3.0, seed=0)
    path = tmp_path / "features.csv"
    # read_features rejects the non-finite values.
    for X in (synthetic, AWKWARD[np.isfinite(AWKWARD)].reshape(3, 3)):
        mbio.write_features(path, X)
        # Bit patterns, so that a negative zero must come back negative.
        assert_array_equal(mbio.read_features(path).view(np.uint64),
                           X.view(np.uint64))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_features_names_the_first_example_with_a_non_finite_value(
        tmp_path, value):
    # Example 1 comes after example 2 in the file.
    path = tmp_path / "features.csv"
    path.write_text(f"example_id,x0,x1\n0,1.5,2\n2,{value},0\n"
                    f"1,0,{value}\n")
    message = f"{path}: example_id 1 holds a non-finite feature value"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mbio.read_features(path)


@pytest.mark.parametrize("writer,oracle,value", [
    (mbio.write_annotations, write_annotations_oracle,
     AnnotationSet(n=3, m=2**40, K=7, example_ids=[2, 0, 1, 0],
                   worker_ids=[2**40 - 1, 0, 5, 1], labels=[6, 0, 3, 6])),
    (mbio.write_truth, write_truth_oracle, np.array([3, 0, 2**62])),
    (mbio.write_truth, write_truth_oracle, np.array([], dtype=np.int64)),
    (mbio.write_features, write_features_oracle, AWKWARD.reshape(4, 3)),
    (mbio.write_soft_labels, write_soft_labels_oracle, AWKWARD.reshape(3, 4)),
    (mbio.write_confusions, write_confusions_oracle, AWKWARD.reshape(3, 2, 2)),
], ids=["annotations", "truth", "truth-no-rows", "features", "soft-labels",
        "confusions"])
def test_writers_match_the_csv_writer_reference(tmp_path, writer, oracle,
                                                value):
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    writer(ours, value)
    oracle(reference, value)
    assert ours.read_bytes() == reference.read_bytes()


def test_model_checkpoint_round_trip(tmp_path):
    X, y = make_synthetic_dataset(60, 2, 4, margin=3.0, seed=1)
    for cfg in (LearnerConfig(epochs=30),
                LearnerConfig(kind="one_hidden_layer_mlp",
                              hidden_units=5, epochs=30)):
        model = fit(X, one_hot(y, 2), cfg, seed=2)
        out = tmp_path / cfg.kind
        mbio.save_model(out, model)
        loaded = mbio.load_model(out)
        assert loaded.kind == model.kind
        assert (loaded.K, loaded.d, loaded.hidden_units) == \
            (model.K, model.d, model.hidden_units)
        assert_array_equal(loaded.parameters, model.parameters)
        assert_array_equal(predict_proba(loaded, X), predict_proba(model, X))


@pytest.mark.parametrize("cfg", [LearnerConfig(epochs=30),
                                 LearnerConfig(kind="one_hidden_layer_mlp",
                                               hidden_units=5, epochs=30)],
                         ids=["logistic", "mlp"])
def test_model_params_file_holds_each_layers_weights_then_its_bias(tmp_path,
                                                                    cfg):
    # fit_oracle and forward_oracle read parameters as [W, b] or
    # [W1, b1, W2, b2], the layout of model_params.csv.
    X, y = make_synthetic_dataset(60, 3, 4, margin=3.0, seed=1)
    soft = one_hot(y, 3)
    mbio.save_model(tmp_path, fit(X, soft, cfg, seed=2))
    written = np.loadtxt(tmp_path / "model_params.csv")
    oracle = fit_oracle(X, soft, cfg, seed=2)
    assert_allclose(written, oracle, rtol=0, atol=1e-12)
    probs = predict_proba(mbio.load_model(tmp_path), X)
    expected, _ = forward_oracle(written, X, cfg.kind, 3,
                                 cfg.hidden_units)
    assert_allclose(probs, expected, rtol=0, atol=1e-14)


def test_a_model_params_file_with_an_extra_value_is_rejected(tmp_path):
    X, y = make_synthetic_dataset(60, 3, 4, margin=3.0, seed=1)
    mbio.save_model(tmp_path, fit(X, one_hot(y, 3), LearnerConfig(epochs=5),
                                  seed=2))
    with open(tmp_path / "model_params.csv", "a") as fh:
        fh.write("0.5\n")
    with pytest.raises(ValueError, match="this model has 15 parameters"):
        predict_proba(mbio.load_model(tmp_path), X)


@pytest.mark.parametrize("reader", [mbio.read_truth, mbio.read_features,
                                    mbio.read_soft_labels])
@pytest.mark.parametrize("ids", [[0, 0], [0, 2]], ids=["duplicate", "gap"])
def test_readers_reject_malformed_example_ids(tmp_path, reader, ids):
    path = tmp_path / "table.csv"
    path.write_text("example_id,v\n" + "".join(f"{i},1\n" for i in ids))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        reader(path)


HEADERS = {
    mbio.read_annotations: "example_id,worker_id,label",
    mbio.read_truth: "example_id,label",
    mbio.read_features: "example_id,x0",
    mbio.read_soft_labels: "example_id,p0,p1",
    mbio.read_confusions: "worker_id,k,s,prob",
}


@pytest.mark.parametrize("reader", HEADERS, ids=lambda reader: reader.__name__)
def test_readers_reject_a_header_only_file(tmp_path, reader):
    path = tmp_path / "table.csv"
    path.write_text(HEADERS[reader] + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no data rows")):
        reader(path)


@pytest.mark.parametrize("rows", ["0,0,0\n-1,0,1\n", "0,-1,0\n",
                                  "0,0,-1\n", "0,0,0\n2,0,1\n"],
                         ids=["example", "worker", "label", "gap"])
def test_read_annotations_names_the_file_on_a_bad_id(tmp_path, rows):
    path = tmp_path / "annotations.csv"
    path.write_text("example_id,worker_id,label\n" + rows)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        mbio.read_annotations(path)


@pytest.mark.parametrize("rows", [
    ["0,0,0,1", "0,1,1,1"],
    ["0,0,0,1", "0,0,1,0", "0,1,0,0", "0,1,1,1", "0,1,1,1"],
    ["0,0,0,0.9", "0,0,1,0", "0,1,0,0", "0,1,1,1"],
    ["-1,0,0,1", "0,0,0,1", "0,0,1,0", "0,1,0,0", "0,1,1,1"],
    ["0,0,0,nan", "0,0,1,nan", "0,1,0,nan", "0,1,1,nan"],
], ids=["missing", "duplicate", "row-sum", "negative", "nan"])
def test_read_confusions_rejects_malformed_files(tmp_path, rows):
    path = tmp_path / "workers.csv"
    path.write_text("worker_id,k,s,prob\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        mbio.read_confusions(path)


def test_read_confusions_names_the_first_row_with_a_non_integral_index(
        tmp_path):
    # Truncated to integers, these rows would load as worker 0's matrix.
    path = tmp_path / "workers.csv"
    path.write_text("worker_id,k,s,prob\n0,0,0,1\n0.5,0,1,0\n"
                    "0.5,1,0,0\n0.5,1,1,1\n0,0,1,0\n")
    message = (f"{path}: data row 2 holds a worker_id, k or s that is not "
               "an integer: 0.5,0,1,0")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mbio.read_confusions(path)


def test_read_confusions_checks_the_row_count_before_sizing_its_table(
        tmp_path):
    # Sized from the largest worker_id, the count table would hold
    # 100001 * 2 * 2 entries for three rows.
    path = tmp_path / "workers.csv"
    path.write_text("worker_id,k,s,prob\n0,0,0,1\n100000,0,0,1\n0,0,1,0\n")
    message = (f"{path}: 3 data rows, not one per entry of (m, K, K) = "
               "(100001, 2, 2)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mbio.read_confusions(path)


@pytest.mark.parametrize("row", ["1e20,0,0,1", "0,-1e20,0,1",
                                 "0,0,9.3e18,1"])
def test_read_confusions_names_a_row_whose_index_does_not_fit_int64(
        tmp_path, row):
    # Cast to int64, 1e20 would wrap, with numpy's cast warning, to a
    # negative index.
    path = tmp_path / "workers.csv"
    path.write_text(f"worker_id,k,s,prob\n0,0,0,1\n{row}\n")
    shown = ",".join(f"{float(v):g}" for v in row.split(","))
    message = (f"{path}: data row 2 holds a worker_id, k or s that does not "
               f"fit int64: {shown}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mbio.read_confusions(path)


# Each file is one column short of what its reader needs.
SHORT_FILES = {
    mbio.read_annotations: "example_id,worker_id\n0,0\n",
    mbio.read_truth: "example_id\n0\n",
    mbio.read_features: "example_id\n0\n",
    mbio.read_soft_labels: "example_id\n0\n",
    mbio.read_confusions: "worker_id,k,s\n0,0,0\n",
}


@pytest.mark.parametrize("reader", SHORT_FILES, ids=lambda reader: reader.__name__)
def test_readers_reject_a_missing_column(tmp_path, reader):
    path = tmp_path / "table.csv"
    path.write_text(SHORT_FILES[reader])
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected")):
        reader(path)


# A valid data row per reader; the cases below break its last value.
ROWS = {
    mbio.read_annotations: "0,0,0",
    mbio.read_truth: "0,1",
    mbio.read_features: "0,1.5",
    mbio.read_soft_labels: "0,0.5,0.5",
    mbio.read_confusions: "0,0,0,1",
}


@pytest.mark.parametrize("reader", ROWS, ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("case", ["ragged", "text"])
def test_readers_name_the_file_on_a_ragged_or_text_row(tmp_path, reader,
                                                       case):
    row = ROWS[reader]
    bad = row.rsplit(",", 1)[0] + ("" if case == "ragged" else ",x")
    path = tmp_path / "table.csv"
    path.write_text(f"{HEADERS[reader]}\n{row}\n{bad}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        reader(path)


def test_read_truth_rejects_a_negative_label(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("example_id,label\n0,1\n1,-1\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: negative label -1")):
        mbio.read_truth(path)


@pytest.mark.parametrize("row, fault", [
    ("nan,0.5", "a value that is not finite"),
    ("inf,0", "a value that is not finite"),
    ("-0.5,1.5", "a value outside [0, 1]"),
    ("0.9,0.9", "values that do not sum to 1"),
    ("0.5,0.4999999", "values that do not sum to 1"),
], ids=["nan", "inf", "negative", "sum-above", "sum-below"])
def test_read_soft_labels_names_the_file_and_example_of_a_bad_value(
        tmp_path, row, fault):
    path = tmp_path / "soft.csv"
    path.write_text(f"example_id,p0,p1\n0,0.25,0.75\n1,{row}\n")
    message = f"{path}: example_id 1 holds {fault}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mbio.read_soft_labels(path)


def test_read_soft_labels_reads_back_rows_of_many_small_entries(tmp_path,
                                                                rng):
    # Each entry is written at 12 significant digits; their sum stays
    # within ROW_SUM_TOL of 1 however many classes share the row.
    soft = rng.dirichlet(np.full(5000, 0.1), size=3)
    path = tmp_path / "soft.csv"
    mbio.write_soft_labels(path, soft)
    assert_allclose(mbio.read_soft_labels(path), soft, rtol=5e-12, atol=0)
