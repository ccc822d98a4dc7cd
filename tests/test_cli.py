import argparse
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_array_equal

from mbem import cli
from mbem import io as mbio
from mbem.cli import LEARNER_FLAGS, build_parser, main
from mbem.harness import FILE_KEYS, _cell_data, spec_from_dict
from mbem.learn import LEARNER_KINDS, LearnerConfig, class_major
from mbem.methods import METHODS
from mbem.simulate import SKILL_KINDS, Scenario

from conftest import sweep_rows

GOLDEN_FILES = Path(__file__).parent / "golden" / "file"


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


def test_simulate_defaults_are_a_minimal_sweeps_scenario(monkeypatch,
                                                        tmp_path):
    scenarios, simulate_unit = [], cli.simulate_unit

    def recorded(scenario, *args):
        scenarios.append(scenario)
        return simulate_unit(scenario, *args)

    monkeypatch.setattr(cli, "simulate_unit", recorded)
    assert main(["simulate", "--n", "10", "--out-dir", str(tmp_path)]) == 0
    assert scenarios == [Scenario()]
    assert spec_from_dict(MINIMAL_SWEEP).scenario == Scenario()


def test_simulate_and_sweep_share_the_default_feature_dimension(tmp_path):
    assert main(["simulate", "--classes", "5", "--n", "20", "--m", "3",
                 "--out-dir", str(tmp_path)]) == 0
    features = mbio.read_features(tmp_path / "features.csv")
    spec = spec_from_dict({**MINIMAL_SWEEP, "classes": 5})
    d = _cell_data(spec, 1, 0)[0].columns.d
    assert features.shape[1] == d == 10


# Every scenario flag differs from its default.
SCENARIO_FLAGS = ["--classes", "3", "--feature-dim", "5", "--margin", "2.5",
                  "--skill", "classwise_hammer_spammer", "--gamma", "0.4",
                  "--m", "7"]
SCENARIO_KEYS = {"classes": 3, "feature_dim": 5, "margin": 2.5, "m": 7,
                 "worker_model": {"kind": "classwise_hammer_spammer",
                                  "gamma": 0.4}}


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_simulate_writes_the_training_data_of_a_sweep_unit(tmp_path, r,
                                                           seed):
    spec = spec_from_dict({**MINIMAL_SWEEP, **SCENARIO_KEYS, "budget": 60})
    assert spec.scenario != Scenario()
    unit = _cell_data(spec, r, seed)[0]
    columns, y, ann, confusions = (unit.columns, unit.truth, unit.ann,
                                   unit.oracle_confusions)
    assert main(["simulate", "--n", str(60 // r), "--r", str(r), "--seed",
                 str(seed), *SCENARIO_FLAGS, "--out-dir", str(tmp_path)]) == 0
    assert_array_equal(
        class_major(mbio.read_features(tmp_path / "features.csv")).XA,
        columns.XA, strict=True)
    assert_array_equal(mbio.read_truth(tmp_path / "truth.csv"), y,
                       strict=True)
    written = mbio.read_annotations(tmp_path / "annotations.csv")
    for name in ("example_ids", "worker_ids", "labels"):
        assert_array_equal(getattr(written, name), getattr(ann, name),
                           strict=True)
    # workers.csv holds 12 significant digits
    rounded = [float(f"{v:.12g}") for v in confusions.ravel()]
    assert_array_equal(mbio.read_confusions(tmp_path / "workers.csv"),
                       np.reshape(rounded, confusions.shape), strict=True)


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


# The annotation file has 6 workers and 2 classes. A confusion file may
# hold more workers than that, but not fewer, and it needs the same classes.
@pytest.mark.parametrize("m,K", [(3, 2), (6, 3)], ids=["workers", "classes"])
def test_train_names_both_files_when_the_worker_confusions_do_not_fit(
        simulated, tmp_path, m, K):
    workers = tmp_path / "workers.csv"
    mbio.write_confusions(workers, np.tile(np.eye(K), (m, 1, 1)))
    with pytest.raises(SystemExit) as exit_:
        train(simulated, tmp_path / "x", "oracle-weighted-em",
              "--worker-confusions", str(workers))
    assert exit_.value.code == (
        f"mbem train --method oracle-weighted-em: {workers} has {m} workers "
        f"and {K} classes, but {simulated / 'annotations.csv'} has 6 "
        "workers and 2 classes")
    assert not (tmp_path / "x").exists()


def test_train_takes_worker_confusions_with_more_workers(simulated, tmp_path):
    workers = tmp_path / "workers.csv"
    mbio.write_confusions(workers, np.tile(np.eye(2), (9, 1, 1)))
    assert train(simulated, tmp_path / "x", "oracle-weighted-em",
                 "--worker-confusions", str(workers)) == 0


def test_train_learner_flags_reach_the_model(simulated, tmp_path):
    out = tmp_path / "mlp"
    assert train(simulated, out, "mv", "--learner", "mlp",
                 "--hidden-units", "4") == 0
    meta = json.loads((out / "model_meta.json").read_text())
    assert (meta["kind"], meta["hidden_units"]) == ("one_hidden_layer_mlp", 4)


def test_train_names_a_non_finite_feature(simulated, tmp_path):
    # The learner would otherwise report a non-finite gradient.
    features = simulated / "features.csv"
    X = mbio.read_features(features)
    X[5, 1] = np.inf
    mbio.write_features(features, X)
    with pytest.raises(SystemExit) as exit_:
        train(simulated, tmp_path / "x", "mv")
    assert exit_.value.code == (f"mbem train --method mv: {features}: "
                                "example_id 5 holds a non-finite feature value")


def test_train_rejects_a_truth_file_given_as_features(simulated, tmp_path):
    # Read as features, a truth file would train a d=1 model on the labels.
    truth = simulated / "truth.csv"
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--annotations", str(simulated / "annotations.csv"),
              "--features", str(truth), "--method", "mv", "--out-dir",
              str(tmp_path / "x")])
    assert exit_.value.code == (f"mbem train --method mv: {truth}: header "
                                "'example_id,label', expected "
                                "'example_id,x0'")
    assert not (tmp_path / "x").exists()


TRAIN_REQUIRED = ["train", "--annotations", "a.csv", "--features", "f.csv",
                  "--method", "mv", "--out-dir", "out"]
# Each config flag of mbem train with a value other than its default, and
# the LearnerConfig field and value that it should give.
CONFIG_FLAGS = [
    ("--learner", "mlp", "kind", "one_hidden_layer_mlp"),
    ("--epochs", "7", "epochs", 7),
    ("--learning-rate", "0.05", "learning_rate", 0.05),
    ("--batch-size", "16", "batch_size", 16),
    ("--hidden-units", "4", "hidden_units", 4),
]


def test_every_config_field_has_a_train_flag():
    assert sorted(name for _, _, name, _ in CONFIG_FLAGS) == sorted(
        f.name for f in fields(LearnerConfig))


@pytest.mark.parametrize("flag,value,name,expected", CONFIG_FLAGS,
                         ids=[flag for flag, *_ in CONFIG_FLAGS])
def test_a_train_config_flag_changes_its_field_alone(flag, value, name,
                                                     expected):
    default = LearnerConfig()
    want = replace(default, **{name: expected})
    assert want != default
    args = build_parser().parse_args(TRAIN_REQUIRED + [flag, value])
    assert cli._config(args) == want


# The learner's initial scale and l2 weight and MBEM's confusion smoothing
# and round count are the constants learn.INIT_SCALE, learn.L2_PENALTY,
# methods.MBEM_SMOOTHING and methods.MBEM_ROUNDS, and MBEM's class prior
# is uniform.
FIXED_SETTINGS = [("--init-scale", "0.1"), ("--l2", "0.1"),
                  ("--smoothing", "0.1"), ("--rounds", "3"),
                  ("--prior", "estimated")]


@pytest.mark.parametrize("flag,value", FIXED_SETTINGS,
                         ids=[flag for flag, _ in FIXED_SETTINGS])
def test_train_has_no_flag_for_a_fixed_setting(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(TRAIN_REQUIRED + [flag, value])
    assert exit_.value.code == 2
    assert (f"unrecognized arguments: {flag} {value}"
            in capsys.readouterr().err)


def test_train_method_choices_are_the_method_names():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    method = next(action for action in sub.choices["train"]._actions
                  if action.dest == "method")
    assert tuple(method.choices) == METHODS


def test_skill_choices_are_the_simulator_names():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    skill = next(action for action in sub.choices["simulate"]._actions
                 if action.dest == "skill")
    assert tuple(skill.choices) == SKILL_KINDS


def test_learner_flags_name_the_learner_kinds():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    learner = next(action for action in sub.choices["train"]._actions
                   if action.dest == "kind")
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
    (["simulate", "--m", "0"], "m must be at least 1, got 0"),
    (["simulate", "--r", "0"], "n, r, m must all be at least 1"),
    (["sweep", "--jobs", "0"], "jobs must be at least 1, got 0"),
    (["sweep", "--jobs", "-2"], "jobs must be at least 1, got -2"),
    (["simulate", "--margin", "nan"], "margin must be finite, got nan"),
    (["simulate", "--n", "0"], "need at least one example"),
    (["simulate", "--gamma", "1.5"], "gamma must lie in [0, 1]"),
    (["simulate", "--feature-dim", "1"],
     "feature_dim must be at least classes (2), got 1"),
    (["bound", "--rho", "0.1", "--epsilon", "nan"],
     "need 0 <= rho < 0.5 and epsilon >= 0"),
    (["bound", "--rho", "0.1", "--grid-step", "nan"],
     "--grid-step must be positive"),
    (["bound", "--rho", "nan", "--grid-step", "0.1"],
     "need 0 <= rho < 0.5 and epsilon >= 0"),
    (["bound", "--rho", "-0.1", "--grid-step", "0.1"],
     "need 0 <= rho < 0.5 and epsilon >= 0"),
    # The training files read cleanly (the test writes features.csv, one
    # feature per example of the golden annotations); the method then
    # finds no --truth.
    (["train", "--annotations", str(GOLDEN_FILES / "annotations.csv"),
      "--features", "features.csv", "--method", "truth"],
     "truth requires the true labels"),
    # A missing file exits with its message, not a traceback.
    (["train", "--annotations", "nope.csv", "--features", "nope.csv",
      "--method", "mv"], "nope.csv not found."),
    (["sweep", "--config", "nope.yaml"],
     "[Errno 2] No such file or directory: 'nope.yaml'"),
    # Only oracle-weighted-em reads the true confusion matrices; the
    # command fails before it reads any file.
    (["train", "--annotations", "nope.csv", "--features", "nope.csv",
      "--method", "mv", "--worker-confusions", "nope.csv"],
     "--worker-confusions is read by oracle-weighted-em only"),
])
def test_a_subcommand_exits_with_a_message_naming_it(tmp_path, capsys,
                                                     monkeypatch, argv,
                                                     message):
    monkeypatch.chdir(tmp_path)
    if argv[0] != "bound":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    if argv[0] == "sweep" and "--config" not in argv:
        sweep_config("yaml", tmp_path / "sweep.yaml")
        argv = argv + ["--config", str(tmp_path / "sweep.yaml")]
    if "features.csv" in argv:
        mbio.write_features(tmp_path / "features.csv", np.zeros((600, 1)))
    where = f" --method {argv[argv.index('--method') + 1]}" if (
        argv[0] == "train") else ""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == f"mbem {argv[0]}{where}: {message}"
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


# Every sweep setting comes from the config file.
@pytest.mark.parametrize("flag", ["--budget", "--seeds", "--redundancies",
                                  "--methods"])
def test_sweep_has_no_override_flag(capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["sweep", "--config", "c.yaml",
                                   "--out-dir", "out", flag, "1"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("value", [["a.csv"], 3], ids=["list", "int"])
def test_sweep_names_a_file_path_that_is_not_a_string(tmp_path, value):
    config = tmp_path / "sweep.yaml"
    sweep_config("yaml", config)
    files = {key: str(tmp_path / f"{key}.csv") for key in FILE_KEYS}
    with open(config, "a") as fh:
        yaml.safe_dump({**files, "annotations_file": value}, fh)
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--config", str(config), "--out-dir",
              str(tmp_path / "out")])
    assert exit_.value.code == ("mbem sweep: annotations_file: a file path "
                                f"must be a string, got {value!r}")


def test_sweep_reports_each_failed_cell_and_exits_1(simulated, tmp_path,
                                                   capsys):
    # File mode has no true confusion matrices for oracle-weighted-em. The
    # training files double as the test set.
    names = ("annotations", "features", "truth", "features", "truth")
    config = tmp_path / "sweep.yaml"
    config.write_text(yaml.safe_dump({
        "budget": 100, "redundancies": [1, 2],
        "methods": ["mv", "oracle-weighted-em"], "seeds": [0],
        "learner": {"epochs": 5},
        **{key: str(simulated / f"{name}.csv")
           for key, name in zip(FILE_KEYS, names)}}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out-dir",
                 str(out)]) == 1
    error = "ValueError: oracle-weighted-em requires the true confusion matrices"
    assert capsys.readouterr().err.splitlines() == [
        f"cell (oracle-weighted-em, r={r}, seed=0) failed: {error}"
        for r in (1, 2)] + [f"2/4 cells succeeded -> {out}"]
    assert [(row["method"], row["error"])
            for row in sweep_rows(out / "sweep.csv")] == [
        ("mv", ""), ("mv", ""), ("oracle-weighted-em", error),
        ("oracle-weighted-em", error)]


@pytest.mark.parametrize("fmt", ["json", "yaml"])
def test_sweep_end_to_end(tmp_path, fmt):
    config = tmp_path / f"sweep.{fmt}"
    sweep_config(fmt, config)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(config), "--out-dir", str(out)])
    assert code == 0
    assert len(sweep_rows(out / "sweep.csv")) == 3 * 2 * 2
    assert sorted(path.name for path in out.iterdir()) == [
        "aggregate.csv", "sweep.csv", "timing.csv"]

