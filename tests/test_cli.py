import argparse
import json
import re

import numpy as np
import pytest
import yaml

from mbem import io as mbio
from mbem.cli import LEARNER_FLAGS, build_parser, main
from mbem.core import PRIOR_MODES
from mbem.harness import _cell_data, spec_from_dict
from mbem.learn import LEARNER_KINDS
from mbem.methods import METHODS
from mbem.simulate import MARGIN, SKILL_KINDS, WorkerSkillModel

from conftest import sweep_rows


@pytest.fixture
def simulated(tmp_path):
    out = tmp_path / "data"
    code = main(["simulate", "--n", "200", "--classes", "2", "--feature-dim",
                 "4", "--margin", "6", "--gamma", "0.5", "--m", "6", "--r",
                 "2", "--seed", "3", "--out-dir", str(out)])
    assert code == 0
    return out


MINIMAL_SWEEP = {"budget": 100, "redundancies": [1], "methods": ["mv"],
                 "seeds": [0]}


def test_simulate_defaults_are_a_minimal_sweeps_scenario():
    args = build_parser().parse_args(["simulate", "--out-dir", "x"])
    spec = spec_from_dict(MINIMAL_SWEEP)
    assert spec.skill == WorkerSkillModel() == WorkerSkillModel(
        kind=args.skill, gamma=args.gamma, K=args.classes)
    assert spec.margin == args.margin == MARGIN


def test_simulate_and_sweep_share_the_default_feature_dimension(tmp_path):
    assert main(["simulate", "--classes", "5", "--n", "20", "--m", "3",
                 "--out-dir", str(tmp_path)]) == 0
    features = mbio.read_features(tmp_path / "features.csv")
    spec = spec_from_dict({**MINIMAL_SWEEP, "classes": 5})
    X = _cell_data(spec, 1, 0)[0]
    assert features.shape[1] == X.shape[1] == 10


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


def train(simulated, out, method, *extra, truth="truth.csv"):
    return main(["train", "--annotations", str(simulated / "annotations.csv"),
                 "--features", str(simulated / "features.csv"),
                 "--truth", str(simulated / truth), "--method", method,
                 "--seed", "1", "--epochs", "20", "--out-dir", str(out),
                 *extra])


def test_train_rejects_a_short_truth_file(simulated, tmp_path):
    short = simulated / "short.csv"
    lines = (simulated / "truth.csv").read_text().splitlines(True)
    short.write_text("".join(lines[:-10]))
    with pytest.raises(SystemExit, match=re.escape(
            "mbem train --method oracle-correct: example counts disagree: "
            f"{simulated / 'features.csv'} has 200, {short} has 190")):
        train(simulated, tmp_path / "x", "oracle-correct", truth="short.csv")


@pytest.mark.parametrize("label", [2, -1])
def test_train_rejects_a_label_that_is_not_a_class(simulated, tmp_path,
                                                   label):
    truth = simulated / "truth.csv"
    lines = truth.read_text().splitlines(True)
    truth.write_text("".join([lines[0], f"0,{label}\n"] + lines[2:]))
    want = (f"{truth}: negative label -1" if label < 0 else
            f"{truth} has label 2, but {simulated / 'annotations.csv'} "
            "has only 2 classes")
    with pytest.raises(SystemExit, match=re.escape(
            f"mbem train --method truth: {want}")):
        train(simulated, tmp_path / "x", "truth")


def test_train_turns_a_diverging_learner_into_the_exit_message(simulated,
                                                              tmp_path):
    with np.errstate(all="ignore"), pytest.raises(SystemExit, match=re.escape(
            "mbem train --method mbem: non-finite training gradient")):
        train(simulated, tmp_path / "x", "mbem", "--learning-rate", "1e300")


def test_train_learner_flags_reach_the_model(simulated, tmp_path):
    out = tmp_path / "mlp"
    assert train(simulated, out, "mv", "--learner", "mlp",
                 "--hidden-units", "4") == 0
    meta = json.loads((out / "model_meta.json").read_text())
    assert (meta["kind"], meta["hidden_units"]) == ("one_hidden_layer_mlp", 4)


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


@pytest.mark.parametrize("rho,step,grid", [
    ("0.45", "0.3", ["0", "0.3"]),     # 0.45 / 0.3 rounds up to 2 steps
    ("0.3", "0.1", ["0", "0.1", "0.2", "0.3"]),   # 0.3 / 0.1 < 3
])
def test_bound_grid_ends_at_the_last_step_not_above_rho(capsys, rho, step,
                                                        grid):
    assert main(["bound", "--rho", rho, "--grid-step", step,
                 "--r-max", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == grid


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--classes", "1"], "need at least two classes"),
    (["bound", "--rho", "0.6"], "need 0 <= rho < 0.5 and epsilon >= 0"),
    (["bound", "--rho", "0.1", "--r-max", "0"], "r_max must be at least 1"),
    (["bound", "--rho", "0.1", "--grid-step", "-0.1"],
     "--grid-step must be positive"),
    (["bound", "--rho", "0.1", "--grid-step", "0"],
     "--grid-step must be positive"),
    (["sweep", "--methods", "mvx"], "unknown method 'mvx'"),
    (["sweep", "--seeds", "a"], "seeds: cannot read 'a' as int"),
    (["sweep", "--jobs", "0"], "jobs must be at least 1, got 0"),
    (["sweep", "--jobs", "-2"], "jobs must be at least 1, got -2"),
    (["simulate", "--margin", "nan"], "margin must be finite"),
    (["sweep", "--seeds", ""], "seeds: cannot read '' as int"),
    (["sweep", "--redundancies", ""], "redundancies: cannot read '' as int"),
    (["sweep", "--methods", ""], "unknown method ''"),
    (["bound", "--rho", "0.1", "--epsilon", "nan"],
     "need 0 <= rho < 0.5 and epsilon >= 0"),
    (["bound", "--rho", "0.1", "--grid-step", "nan"],
     "--grid-step must be positive"),
    (["bound", "--rho", "nan", "--grid-step", "0.1"],
     "need 0 <= rho < 0.5 and epsilon >= 0"),
    (["bound", "--rho", "-0.1", "--grid-step", "0.1"],
     "need 0 <= rho < 0.5 and epsilon >= 0"),
])
def test_a_subcommand_exits_with_a_message_naming_it(tmp_path, capsys, argv,
                                                     message):
    if argv[0] != "bound":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    if argv[0] == "sweep":
        sweep_config("yaml", tmp_path / "sweep.yaml")
        argv = argv + ["--config", str(tmp_path / "sweep.yaml")]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == f"mbem {argv[0]}: {message}"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name,text,message", [
    ("sweep.yaml", "budget: 400\nredundancies: [1\n",
     "while parsing a flow sequence"),
    ("sweep.json", '{"budget": }', "Expecting value: line 1 column 12"),
    ("sweep.yaml", "", "a sweep config must be a mapping, got None"),
    ("sweep.yaml", "- 400\n", "a sweep config must be a mapping, got [400]"),
], ids=["yaml-syntax", "json-syntax", "empty", "list"])
def test_sweep_names_a_config_file_it_cannot_read(tmp_path, name, text,
                                                  message):
    config = tmp_path / name
    config.write_text(text)
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--config", str(config), "--out-dir",
              str(tmp_path / "out")])
    assert exit_.value.code.startswith(f"mbem sweep: {config}: {message}")


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
    assert len(sweep_rows(out / "sweep.csv")) == 3 * 2 * 2
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
    rows = sweep_rows(out / "sweep.csv")
    assert len(rows) == 1
    assert rows[0]["method"] == "truth"


def test_sweep_budget_override(tmp_path):
    config = tmp_path / "sweep.yaml"
    sweep_config("yaml", config)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out-dir", str(out),
                 "--methods", "truth", "--seeds", "0",
                 "--budget", "301"]) == 0
    assert [(row["r"], row["n_train"]) for row in sweep_rows(out / "sweep.csv")
            ] == [("1", "301"), ("2", "150")]
