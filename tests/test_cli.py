import argparse
import json

import numpy as np
import pytest
import yaml

from mbem import io as mbio
from mbem.cli import LEARNER_FLAGS, build_parser, main
from mbem.core import PRIOR_MODES
from mbem.harness import read_sweep_csv
from mbem.learn import LEARNER_KINDS
from mbem.methods import METHODS
from mbem.simulate import SKILL_KINDS


@pytest.fixture
def simulated(tmp_path):
    out = tmp_path / "data"
    code = main(["simulate", "--n", "200", "--classes", "2", "--feature-dim",
                 "4", "--margin", "6", "--gamma", "0.5", "--m", "6", "--r",
                 "2", "--seed", "3", "--out-dir", str(out)])
    assert code == 0
    return out


def test_simulate_outputs_are_consistent(simulated):
    ann = mbio.read_annotations(simulated / "annotations.csv")
    truth = mbio.read_truth(simulated / "truth.csv")
    features = mbio.read_features(simulated / "features.csv")
    workers = mbio.read_confusions(simulated / "workers.csv")
    assert len(ann) == 400
    assert truth.shape == (200,)
    assert features.shape == (200, 4)
    assert workers.shape == (6, 2, 2)
    np.testing.assert_allclose(workers.sum(axis=2), 1.0, atol=1e-9)


@pytest.mark.parametrize("method,extra", [
    ("mv", []),
    ("em", []),
    ("weighted-mv", []),
    ("weighted-em", []),
    ("mbem", []),
])
def test_train_methods_write_model_and_posteriors(simulated, tmp_path, method,
                                                  extra):
    out = tmp_path / method
    code = main(["train", "--annotations", str(simulated / "annotations.csv"),
                 "--features", str(simulated / "features.csv"),
                 "--method", method, "--seed", "1", "--epochs", "60",
                 "--out-dir", str(out)] + extra)
    assert code == 0
    model = mbio.load_model(out)
    assert model.d == 4
    soft = mbio.read_soft_labels(out / "posteriors.csv")
    assert soft.shape == (200, 2)
    if method in ("em", "weighted-em", "mbem"):
        conf = mbio.read_confusions(out / "confusions.csv")
        assert conf.shape == (6, 2, 2)


def test_train_oracle_methods(simulated, tmp_path):
    out = tmp_path / "ocorrect"
    code = main(["train", "--annotations", str(simulated / "annotations.csv"),
                 "--features", str(simulated / "features.csv"),
                 "--method", "oracle-correct", "--truth",
                 str(simulated / "truth.csv"), "--seed", "1", "--epochs", "60",
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "model_params.csv").exists()

    out = tmp_path / "truth"
    code = main(["train", "--annotations", str(simulated / "annotations.csv"),
                 "--features", str(simulated / "features.csv"),
                 "--method", "truth", "--truth", str(simulated / "truth.csv"),
                 "--seed", "1", "--epochs", "60", "--out-dir", str(out)])
    assert code == 0
    assert (out / "model_params.csv").exists()

    out = tmp_path / "oweighted"
    code = main(["train", "--annotations", str(simulated / "annotations.csv"),
                 "--features", str(simulated / "features.csv"),
                 "--method", "oracle-weighted-em", "--worker-confusions",
                 str(simulated / "workers.csv"), "--seed", "1", "--epochs",
                 "60", "--out-dir", str(out)])
    assert code == 0


def test_train_oracle_flags_required(simulated, tmp_path):
    with pytest.raises(SystemExit):
        main(["train", "--annotations", str(simulated / "annotations.csv"),
              "--features", str(simulated / "features.csv"),
              "--method", "oracle-correct", "--out-dir", str(tmp_path / "x")])
    with pytest.raises(SystemExit):
        main(["train", "--annotations", str(simulated / "annotations.csv"),
              "--features", str(simulated / "features.csv"),
              "--method", "truth", "--out-dir", str(tmp_path / "t")])
    with pytest.raises(SystemExit):
        main(["train", "--annotations", str(simulated / "annotations.csv"),
              "--features", str(simulated / "features.csv"),
              "--method", "oracle-weighted-em",
              "--out-dir", str(tmp_path / "y")])


def test_train_method_choices_are_the_method_names():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    method = next(action for action in sub.choices["train"]._actions
                  if action.dest == "method")
    assert tuple(method.choices) == METHODS


def test_prior_and_skill_choices_are_the_core_and_simulator_names():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = {(command, action.dest): tuple(action.choices or ())
             for command in ("train", "simulate")
             for action in sub.choices[command]._actions}
    assert flags["train", "prior_mode"] == PRIOR_MODES
    assert flags["simulate", "skill"] == SKILL_KINDS


def test_learner_flags_name_the_learner_kinds():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    learner = next(action for action in sub.choices["train"]._actions
                   if action.dest == "learner_kind")
    assert tuple(learner.choices) == tuple(LEARNER_FLAGS)
    assert tuple(LEARNER_FLAGS.values()) == LEARNER_KINDS


def test_bound_table(capsys):
    assert main(["bound", "--rho", "0.1", "--r-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho,r,beta,factor,is_optimal"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    assert [row[4] for row in rows] == ["1", "0", "0"]   # r=1 optimal
    assert float(rows[0][2]) == pytest.approx(2 * 0.1 * 0.9)


def test_bound_grid(capsys):
    assert main(["bound", "--rho", "0.02", "--grid-step", "0.01",
                 "--r-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 3 * 2   # three rho values, two r each


def sweep_config(fmt, path):
    cfg = {
        "budget": 400,
        "redundancies": [1, 2],
        "methods": ["mv", "mbem", "truth"],
        "worker_model": {"kind": "hammer_spammer", "gamma": 0.5},
        "classes": 2,
        "m": 6,
        "n_test": 300,
        "feature_dim": 4,
        "margin": 6.0,
        "seeds": [0, 1],
        "learner": {"epochs": 40},
    }
    with open(path, "w") as fh:
        if fmt == "json":
            json.dump(cfg, fh)
        else:
            yaml.safe_dump(cfg, fh)


@pytest.mark.parametrize("fmt", ["json", "yaml"])
def test_sweep_end_to_end(tmp_path, fmt):
    config = tmp_path / f"sweep.{fmt}"
    sweep_config(fmt, config)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(config), "--out-dir", str(out)])
    assert code == 0
    records = read_sweep_csv(out / "sweep.csv")
    assert len(records) == 3 * 2 * 2
    assert (out / "aggregate.csv").exists()
    assert (out / "plotdata_mbem.csv").exists()
    assert (out / "timing.csv").exists()


def test_sweep_overrides(tmp_path):
    config = tmp_path / "sweep.yaml"
    sweep_config("yaml", config)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(config), "--out-dir", str(out),
                 "--methods", "truth", "--redundancies", "1",
                 "--seeds", "0"])
    assert code == 0
    records = read_sweep_csv(out / "sweep.csv")
    assert len(records) == 1
    assert records[0].method == "truth"
