import pytest
import yaml

from mbem import harness
from mbem.cli import main
from mbem.learn import LearnerConfig
from mbem.methods import MbemConfig


def tiny_spec(**extra):
    cfg = {"budget": 120, "redundancies": [1, 2], "methods": ["mv", "mbem"],
           "classes": 2, "m": 5, "n_test": 50, "feature_dim": 4,
           "seeds": [0, 1], "learner": {"epochs": 10}}
    return harness.spec_from_dict({**cfg, **extra})


def test_records_and_sweep_csv_do_not_depend_on_jobs(tmp_path):
    spec = tiny_spec()
    outputs = []
    for jobs in (1, 2):
        result = harness.run_sweep(spec, jobs=jobs)
        assert [(rec.method, rec.r, rec.seed) for rec in result.records] == [
            (method, r, seed) for method in spec.methods
            for r in spec.redundancies for seed in spec.seeds]
        assert all(rec.error is None for rec in result.records)
        harness.emit_report(result, tmp_path / str(jobs))
        outputs.append((tmp_path / str(jobs) / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_cell_data_runs_once_per_r_and_seed(monkeypatch):
    calls = []
    cell_data = harness._cell_data

    def counted(spec, r, seed):
        calls.append((r, seed))
        return cell_data(spec, r, seed)

    monkeypatch.setattr(harness, "_cell_data", counted)
    harness.run_sweep(tiny_spec(), jobs=1)
    assert sorted(calls) == [(1, 0), (1, 1), (2, 0), (2, 1)]


@pytest.mark.parametrize("exc", [TypeError, RuntimeError])
def test_only_data_and_learner_failures_become_error_records(monkeypatch,
                                                             exc):
    def broken(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(harness, "train_method", broken)
    if exc is TypeError:
        with pytest.raises(TypeError, match="boom"):
            harness.run_sweep(tiny_spec(), jobs=1)
    else:
        records = harness.run_sweep(tiny_spec(), jobs=1).records
        assert [rec.error for rec in records] == ["RuntimeError: boom"] * 8


def test_file_mode_rejects_features_that_do_not_match_the_truth(tmp_path):
    data = tmp_path / "data"
    assert main(["simulate", "--n", "100", "--m", "5", "--r", "2",
                 "--seed", "3", "--out-dir", str(data)]) == 0
    for name in ("features", "truth"):
        (data / f"test_{name}.csv").write_bytes(
            (data / f"{name}.csv").read_bytes())
    features = data / "features.csv"
    features.write_text("".join(features.read_text().splitlines(True)[:-1]))
    spec = tiny_spec(**{f"{name}_file": str(data / f"{name}.csv")
                        for name in ("annotations", "features", "truth",
                                     "test_features", "test_truth")})
    records = harness.run_sweep(spec, jobs=1).records
    assert len(records) == 8
    for rec in records:
        assert "example counts disagree" in rec.error
        assert str(features) in rec.error and "truth.csv" in rec.error


def test_spec_from_dict_takes_config_defaults_from_the_dataclasses():
    spec = harness.spec_from_dict({"budget": 100, "redundancies": [1],
                                   "methods": ["mv"], "seeds": [0]})
    assert spec.mbem == MbemConfig()
    assert spec.mbem.learner == LearnerConfig()


def test_spec_from_dict_coerces_yaml_strings():
    spec = tiny_spec(learner=yaml.safe_load("l2_penalty: 1e-4\nepochs: 7"),
                     smoothing="0.5")
    assert spec.mbem.learner == LearnerConfig(l2_penalty=1e-4, epochs=7)
    assert spec.mbem.smoothing == 0.5


def test_spec_from_dict_rejects_an_unknown_learner_key():
    with pytest.raises(ValueError, match="epoch_count"):
        tiny_spec(learner={"epoch_count": 10})
