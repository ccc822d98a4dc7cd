import dataclasses
import functools
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import yaml

from mbem import core, harness, learn, methods
from mbem import io as mbio
from mbem.cli import main
from mbem.learn import LearnerConfig
from mbem.seeding import RngSeed
from mbem.simulate import Scenario, WorkerSkillModel

from conftest import sweep_rows


def tiny_config(**extra):
    cfg = {"budget": 120, "redundancies": [1, 2], "methods": ["mv", "mbem"],
           "classes": 2, "m": 5, "n_test": 50, "feature_dim": 4,
           "seeds": [0, 1], "learner": {"epochs": 10}}
    return {**cfg, **extra}


def tiny_spec(**extra):
    return harness.spec_from_dict(tiny_config(**extra))


def sweep_csv_at_jobs_1_and_2(spec, out_dir, jobs_counts=(1, 2)):
    """The sweep.csv bytes of spec's sweep at each of jobs_counts (jobs=1
    and jobs=2 unless given), each checked to hold every cell in spec
    order, with no error."""
    outputs = []
    for jobs in jobs_counts:
        result = harness.run_sweep(spec, jobs=jobs)
        assert [(rec.method, rec.r, rec.seed) for rec in result.records] == [
            (method, r, seed) for method in spec.methods
            for r in spec.redundancies for seed in spec.seeds]
        assert all(rec.error is None for rec in result.records)
        harness.emit_report(result, out_dir / str(jobs))
        outputs.append((out_dir / str(jobs) / "sweep.csv").read_bytes())
    return outputs


def test_records_and_sweep_csv_do_not_depend_on_jobs(tmp_path):
    first, second = sweep_csv_at_jobs_1_and_2(tiny_spec(), tmp_path)
    assert first == second


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError,
                       match=f"^jobs must be at least 1, got {jobs}$"):
        harness.run_sweep(tiny_spec(), jobs=jobs)


def test_error_text_round_trips_through_sweep_csv(tmp_path):
    error = 'ValueError: bad, "quoted"\nsecond line'
    record = harness.CellRecord("mv", 1, 120, 0, float("nan"), float("nan"),
                                0.0, error)
    harness.emit_report(harness.SweepResult([record], {}), tmp_path)
    assert [row["error"] for row in
            sweep_rows(tmp_path / "sweep.csv")] == [error]


def test_cell_data_runs_once_per_r_and_seed(monkeypatch):
    calls = []
    cell_data = harness._cell_data

    def counted(spec, r, seed):
        calls.append((r, seed))
        return cell_data(spec, r, seed)

    monkeypatch.setattr(harness, "_cell_data", counted)
    harness.run_sweep(tiny_spec(), jobs=1)
    assert sorted(calls) == [(1, 0), (1, 1), (2, 0), (2, 1)]


@pytest.mark.parametrize("r", [1, 2])
def test_a_unit_builds_each_class_major_copy_once(monkeypatch, r):
    # oracle-correct's row subset is gathered from the unit's copy.
    spec = tiny_spec(methods=list(methods.METHODS))
    copies, class_major = [], learn.class_major

    def counted(features):
        copies.append(np.shape(features))
        return class_major(features)

    for module in (learn, methods, harness):
        monkeypatch.setattr(module, "class_major", counted)
    assert all(rec.error is None for rec in harness._run_unit(spec, r, 0))
    assert sorted(copies) == sorted([(spec.budget // r, 4), (spec.n_test, 4)])


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


def file_spec(tmp_path):
    """A tiny file-mode spec over simulated CSVs, and their directory; the
    test files are copies of the training ones."""
    data = tmp_path / "data"
    assert main(["simulate", "--n", "120", "--m", "5", "--r", "2",
                 "--seed", "3", "--out-dir", str(data)]) == 0
    for name in ("features", "truth"):
        (data / f"test_{name}.csv").write_bytes(
            (data / f"{name}.csv").read_bytes())
    spec = tiny_spec(**{f"{name}_file": str(data / f"{name}.csv")
                        for name in ("annotations", "features", "truth",
                                     "test_features", "test_truth")})
    return spec, data


def drop_last_row(path):
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))


def assert_counts_disagree(records, features):
    assert len(records) == 8
    for rec in records:
        assert "example counts disagree" in rec.error
        assert str(features) in rec.error and "truth.csv" in rec.error


def test_file_mode_sweep_csv_does_not_depend_on_jobs(tmp_path):
    # r=1 subsamples one of the file's two labels per example
    spec, _ = file_spec(tmp_path)
    first, second = sweep_csv_at_jobs_1_and_2(spec, tmp_path / "out")
    assert first == second


@pytest.mark.parametrize("jobs", [1, 2])
def test_file_mode_rejects_features_that_do_not_match_the_truth(tmp_path,
                                                                jobs):
    spec, data = file_spec(tmp_path)
    drop_last_row(data / "features.csv")
    assert_counts_disagree(harness.run_sweep(spec, jobs=jobs).records,
                           data / "features.csv")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name,label", [("truth", 2), ("truth", -1),
                                        ("test_truth", 2)])
def test_file_mode_rejects_a_label_that_is_not_a_class(tmp_path, name, label,
                                                       jobs):
    spec, data = file_spec(tmp_path)
    truth = data / f"{name}.csv"
    lines = truth.read_text().splitlines(True)
    truth.write_text("".join([lines[0], f"0,{label}\n"] + lines[2:]))
    want = (f"{truth}: negative label -1" if label < 0 else
            f"{truth} has label 2, but {data / 'annotations.csv'} "
            "has only 2 classes")
    records = harness.run_sweep(spec, jobs=jobs).records
    assert [rec.error for rec in records] == [f"ValueError: {want}"] * 8


@pytest.mark.parametrize("jobs", [1, 2])
def test_file_mode_names_a_short_example_by_its_file_example_id(tmp_path,
                                                                 jobs):
    # Seed 0's subset leaves out example 50; seeds 1 and 2 take it, at
    # other indices of their subsets.
    data = tmp_path / "data"
    assert main(["simulate", "--n", "60", "--m", "5", "--r", "3",
                 "--seed", "1", "--out-dir", str(data)]) == 0
    annotations = data / "annotations.csv"
    lines = annotations.read_text().splitlines(True)
    ex50 = [line for line in lines if line.startswith("50,")]
    annotations.write_text("".join(line for line in lines
                                   if line not in ex50[1:]))
    spec = tiny_spec(budget=90, redundancies=[3], methods=["mv"],
                     seeds=[0, 1, 2],
                     **{f"{name}_file": str(data / f"{name}.csv")
                        for name in ("annotations", "features", "truth")},
                     test_features_file=str(data / "features.csv"),
                     test_truth_file=str(data / "truth.csv"))
    want = (f"ValueError: {annotations}: example 50 has fewer than 3 "
            f"annotations")
    records = harness.run_sweep(spec, jobs=jobs).records
    assert [rec.error for rec in records] == [None, want, want]


def test_file_mode_fails_a_unit_that_needs_more_examples_than_the_file(
        tmp_path):
    # The file holds 120 examples: r=1 needs 200 of them, r=2 only 100.
    spec, _ = file_spec(tmp_path)
    records = harness.run_sweep(dataclasses.replace(spec, budget=200)).records
    want = (f"ValueError: {spec.input_files[0]}: annotation file has only "
            "120 examples, cell needs 200")
    assert [(rec.r, rec.error) for rec in records] == [
        (1, want), (1, want), (2, None), (2, None)] * 2


def test_file_mode_names_a_non_finite_test_feature(tmp_path):
    # Every prediction on a NaN row is class 0, which would read as a risk.
    spec, data = file_spec(tmp_path)
    test_features = data / "test_features.csv"
    mbio.write_features(test_features,
                        np.full_like(mbio.read_features(test_features),
                                     np.nan))
    want = (f"ValueError: {test_features}: example_id 0 holds a non-finite "
            "feature value")
    records = harness.run_sweep(spec).records
    assert [rec.error for rec in records] == [want] * 8


@pytest.mark.parametrize("jobs", [1, 2])
def test_file_mode_aborts_on_a_missing_input_file(tmp_path, jobs):
    # At jobs=2 a pool worker raises it, and pool.map raises it again here.
    spec, data = file_spec(tmp_path)
    (data / "test_truth.csv").unlink()
    with pytest.raises(FileNotFoundError,
                       match=re.escape(str(data / "test_truth.csv"))):
        harness.run_sweep(spec, jobs=jobs)


@pytest.mark.parametrize("jobs,reads", [(1, (1, 2, 2)), (2, (0, 0, 0))])
def test_file_mode_reads_its_inputs_once_per_process(monkeypatch, tmp_path,
                                                     jobs, reads):
    # At jobs=2 the pool workers read; these counts are the parent's.
    calls = {"annotations": 0, "features": 0, "truth": 0}
    for name in calls:
        reader = getattr(mbio, f"read_{name}")

        def counted(path, reader=reader, name=name):
            calls[name] += 1
            return reader(path)

        monkeypatch.setattr(mbio, f"read_{name}", counted)
    spec, _ = file_spec(tmp_path)
    records = harness.run_sweep(spec, jobs=jobs).records
    assert len(records) == 8 and all(rec.error is None for rec in records)
    assert tuple(calls.values()) == reads


@pytest.mark.parametrize("jobs", [1, 2])
def test_pool_workers_leave_the_parents_input_cache_empty(tmp_path, jobs):
    spec, _ = file_spec(tmp_path)
    assert all(rec.error is None
               for rec in harness.run_sweep(spec, jobs=jobs).records)
    assert harness._file_inputs.cache_info().currsize == 0


def test_an_aborted_sweep_leaves_the_input_cache_empty(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise TypeError("boom")

    monkeypatch.setattr(harness, "train_method", broken)
    spec, _ = file_spec(tmp_path)
    with pytest.raises(TypeError, match="boom"):
        harness.run_sweep(spec, jobs=1)
    assert harness._file_inputs.cache_info().currsize == 0


def test_a_file_mode_sweep_under_spawn_does_not_depend_on_jobs(monkeypatch,
                                                                tmp_path):
    # Spawned workers import mbem.harness afresh, with an empty cache.
    monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    spec, _ = file_spec(tmp_path)
    first, second = sweep_csv_at_jobs_1_and_2(spec, tmp_path / "out")
    assert first == second


def test_a_one_unit_file_mode_sweep_does_not_depend_on_jobs(tmp_path):
    spec, _ = file_spec(tmp_path)
    one_unit = dataclasses.replace(spec, redundancies=(1,), seeds=(0,))
    first, second = sweep_csv_at_jobs_1_and_2(one_unit, tmp_path / "out",
                                              (1, 4))
    assert first == second


def test_a_file_mode_spec_with_list_fields_runs_in_a_pool(tmp_path):
    # A pool worker's input cache is keyed by the file paths, not by the
    # spec, which a list field would make unhashable.
    spec, _ = file_spec(tmp_path)
    listed = dataclasses.replace(spec, redundancies=[1, 2], seeds=[0, 1])
    first, second = sweep_csv_at_jobs_1_and_2(listed, tmp_path / "out")
    assert first == second


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched reader reaches pool workers only "
                           "when they are forked")
@pytest.mark.parametrize("redundancies,seeds,jobs", [((1,), (0,), 4),
                                                     ((1, 2), (0, 1), 2)])
def test_each_pool_worker_that_runs_a_unit_reads_its_inputs_once(
        monkeypatch, tmp_path, redundancies, seeds, jobs):
    def logged(log, fn):
        def call(*args):
            with open(tmp_path / log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fn(*args)
        return call

    monkeypatch.setattr(mbio, "read_annotations",
                        logged("reads", mbio.read_annotations))
    # The pool pickles _run_unit by name, so the log sits one call below it.
    monkeypatch.setattr(harness, "_cell_data",
                        logged("units", harness._cell_data))
    spec, _ = file_spec(tmp_path)
    spec = dataclasses.replace(spec, redundancies=redundancies, seeds=seeds)
    records = harness.run_sweep(spec, jobs=jobs).records
    assert all(rec.error is None for rec in records)
    reads = (tmp_path / "reads").read_text().split()
    workers = set((tmp_path / "units").read_text().split())
    assert sorted(reads) == sorted(workers)
    assert str(os.getpid()) not in workers


@pytest.mark.parametrize("jobs", [1, 2])
def test_file_mode_rereads_its_inputs_on_every_sweep(tmp_path, jobs):
    spec, data = file_spec(tmp_path)
    assert all(rec.error is None
               for rec in harness.run_sweep(spec, jobs=jobs).records)
    drop_last_row(data / "features.csv")
    assert_counts_disagree(harness.run_sweep(spec, jobs=jobs).records,
                           data / "features.csv")


@pytest.mark.parametrize("present,missing", [
    (["annotations", "features", "test_features", "test_truth"], "truth_file"),
    (["features"], "annotations_file, truth_file, test_features_file, "
                   "test_truth_file"),
])
def test_spec_rejects_a_partial_file_mode_spec(tmp_path, present, missing):
    with pytest.raises(ValueError, match=f"; missing {missing}$"):
        tiny_spec(**{f"{name}_file": str(tmp_path / f"{name}.csv")
                     for name in present})


@pytest.mark.parametrize("paths", [(), ("a.csv",) * 4, ("a.csv",) * 6])
def test_spec_rejects_input_files_that_are_not_five_paths(paths):
    with pytest.raises(ValueError, match=f"^input_files must hold 5 paths, "
                                         f"got {len(paths)}$"):
        dataclasses.replace(tiny_spec(), input_files=paths)


@pytest.mark.parametrize("value,replace", [(["a.csv"], False), (3, False),
                                           (["a.csv"], True)],
                         ids=["list", "int", "replace"])
def test_spec_from_dict_rejects_a_file_path_that_is_not_a_string(tmp_path,
                                                                 value,
                                                                 replace):
    # A list used to reach the input cache as an unhashable key, and an
    # int would reach open() as a file descriptor. SweepSpec checks the
    # paths, so a spec that dataclasses.replace builds is checked too.
    files = {key: str(tmp_path / f"{key}.csv") for key in harness.FILE_KEYS}
    message = f"annotations_file: a file path must be a string, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if replace:
            spec = tiny_spec(**files)
            dataclasses.replace(spec, input_files=(value,
                                                   *spec.input_files[1:]))
        else:
            tiny_spec(**{**files, "annotations_file": value})


def test_a_bug_in_fit_propagates_out_of_an_mbem_sweep(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("boom")

    monkeypatch.setattr(methods, "fit", broken)
    with pytest.raises(TypeError, match="boom"):
        harness.run_sweep(tiny_spec(methods=["mbem"]), jobs=1)


def test_spec_from_dict_takes_config_defaults_from_the_dataclasses():
    spec = harness.spec_from_dict({"budget": 100, "redundancies": [1],
                                   "methods": ["mv"], "seeds": [0]})
    assert spec.learner == LearnerConfig()
    assert spec.scenario == Scenario()
    assert spec.n_test == harness.SweepSpec.n_test


# MBEM's round count and class prior are fixed (methods.MBEM_ROUNDS, and
# a uniform prior in every round), so a config cannot set them.
@pytest.mark.parametrize("key,value", [("rounds", 3), ("prior", "estimated")])
def test_spec_from_dict_rejects_a_removed_mbem_key(key, value):
    message = f"unknown sweep config key(s) ['{key}']"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tiny_spec(**{key: value})


def test_spec_from_dict_coerces_yaml_strings():
    # YAML reads 5e-2, which has no dot, as a string.
    spec = tiny_spec(learner=yaml.safe_load("kind: one_hidden_layer_mlp\n"
                                            "learning_rate: 5e-2\nepochs: 7"),
                     margin="2.5", worker_model={"gamma": "0.9"},
                     seeds=["0", "1"])
    assert spec.learner == LearnerConfig(kind="one_hidden_layer_mlp",
                                         learning_rate=0.05, epochs=7)
    assert spec.scenario.margin == 2.5
    assert spec.scenario.skill == WorkerSkillModel(gamma=0.9)
    assert spec.seeds == (0, 1)


@pytest.mark.parametrize("key", ["methods", "redundancies", "seeds"])
def test_spec_rejects_an_empty_list(key):
    with pytest.raises(ValueError, match=f"^{key} must not be empty$"):
        tiny_spec(**{key: []})


def test_spec_from_dict_rejects_an_unknown_learner_key():
    # init_scale and l2_penalty are constants of learn, not settings.
    for key in ("epoch_count", "init_scale", "l2_penalty"):
        message = f"LearnerConfig cannot take field(s) ['{key}']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tiny_spec(learner={key: 0.3})


@pytest.mark.parametrize("learner", [
    {"learner_kind": "one_hidden_layer_mlp"},
    {"kind": "multinomial_logistic", "learner_kind": "one_hidden_layer_mlp"},
], ids=["alone", "next-to-kind"])
def test_spec_from_dict_takes_the_learner_kind_as_kind_only(learner):
    # The learner's kind is learner.kind; learner_kind is an unknown field.
    message = "LearnerConfig cannot take field(s) ['learner_kind']"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tiny_spec(learner=learner)


@pytest.mark.parametrize("key,values,repeat", [
    ("seeds", [0, 1, 0], "0"),
    ("redundancies", [1, 2, 2], "2"),
    ("methods", ["mv", "mbem", "mv"], "'mv'"),
])
def test_spec_rejects_a_repeated_list_entry(key, values, repeat):
    # A repeated seed would count as one more seed in aggregate.csv.
    with pytest.raises(ValueError, match=f"^{key} repeats {repeat}$"):
        tiny_spec(**{key: values})


@pytest.mark.parametrize("edit,message", [
    ({"n_tset": 10}, "unknown sweep config key(s) ['n_tset']"),
    ({"classess": 4}, "unknown sweep config key(s) ['classess']"),
    ({"seeds": None}, "sweep config lacks seeds"),
    ({"seeds": 0}, "seeds must be a list, got 0"),
    ({"margin": float("nan")}, "margin must be finite, got nan"),
    ({"margin": float("inf")}, "margin must be finite, got inf"),
    ({"m": 0}, "m must be at least 1, got 0"),
    ({"n_test": 0}, "n_test must be at least 1, got 0"),
    ({"feature_dim": 1}, "feature_dim must be at least classes (2), got 1"),
    ({"budget": 1}, "budget 1 cannot fund redundancy 2"),
    ({"redundancies": [0]}, "budget 120 cannot fund redundancy 0"),
    # MBEM's smoothing is the constant methods.MBEM_SMOOTHING.
    ({"smoothing": 0.5}, "unknown sweep config key(s) ['smoothing']"),
    ({"methods": ["mvx"]}, "unknown method 'mvx'"),
    ({"methods": [""]}, "unknown method ''"),
])
def test_spec_from_dict_names_a_bad_top_level_key(edit, message):
    # None drops the key.
    cfg = {key: value for key, value in tiny_config(**edit).items()
           if value is not None}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        harness.spec_from_dict(cfg)


@pytest.mark.parametrize("worker_model,key", [({"gama": 0.9}, "gama"),
                                              ({"K": 3}, "K")])
def test_spec_from_dict_rejects_a_worker_model_key_it_does_not_take(
        worker_model, key):
    # K comes from the top-level classes key only.
    with pytest.raises(ValueError, match=re.escape(f"['{key}']")):
        tiny_spec(worker_model=worker_model)


@pytest.mark.parametrize("key,block,message", [
    ("learner", None, None),
    ("worker_model", None, None),
    ("learner", 5, "learner must be a mapping, got 5"),
    ("worker_model", [0.9], "worker_model must be a mapping, got [0.9]"),
])
def test_spec_from_dict_reads_a_null_block_as_absent(key, block, message):
    # YAML reads an empty block (a key with no entries) as null.
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tiny_spec(**{key: block})
        return
    absent = {k: v for k, v in tiny_config().items() if k != key}
    assert tiny_spec(**{key: block}) == harness.spec_from_dict(absent)


@pytest.mark.parametrize("edit,message", [
    ({"seeds": ["a"]}, "seeds: cannot read 'a' as int"),
    ({"budget": "abc"}, "budget: cannot read 'abc' as int"),
    ({"m": "x"}, "m: cannot read 'x' as int"),
    ({"learner": {"epochs": "x"}}, "learner.epochs: cannot read 'x' as int"),
    ({"worker_model": {"gamma": "high"}},
     "worker_model.gamma: cannot read 'high' as float"),
    ({"margin": [2]}, "margin: cannot read [2] as float"),
    ({"budget": 100.7}, "budget: cannot read 100.7 as int"),
    ({"m": 5.9}, "m: cannot read 5.9 as int"),
    ({"seeds": [0.5]}, "seeds: cannot read 0.5 as int"),
    ({"learner": {"epochs": 2.5}}, "learner.epochs: cannot read 2.5 as int"),
    ({"redundancies": [1.9]}, "redundancies: cannot read 1.9 as int"),
    ({"classes": "2.5"}, "classes: cannot read '2.5' as int"),
    ({"learner": yaml.safe_load("epochs: yes")},
     "learner.epochs: cannot read True as int"),
    ({"seeds": [""]}, "seeds: cannot read '' as int"),
    ({"redundancies": [""]}, "redundancies: cannot read '' as int"),
    ({"budget": float("inf")}, "budget: cannot read inf as int"),
    ({"learner": {"epochs": float("-inf")}},
     "learner.epochs: cannot read -inf as int"),
])
def test_spec_from_dict_names_a_value_it_cannot_coerce(edit, message):
    # An integer key takes an integral value only; 100.7 is not read as 100.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tiny_spec(**edit)


def test_spec_from_dict_reads_an_integral_float_as_an_int():
    spec = tiny_spec(budget=120.0, seeds=[0.0, "1"],
                     learner={"epochs": 10.0})
    assert (spec.budget, spec.seeds, spec.learner.epochs) == (
        120, (0, 1), 10)
    assert spec == tiny_spec()


def test_em_and_weighted_em_share_one_classic_em_per_unit(monkeypatch,
                                                          tmp_path):
    calls = []
    classic_em = core.classic_em

    def counted(ann):
        calls.append(ann)
        return classic_em(ann)

    monkeypatch.setattr(core, "classic_em", counted)
    both = tiny_spec(methods=["em", "weighted-em"])
    harness.emit_report(harness.run_sweep(both, jobs=1), tmp_path / "both")
    assert len(calls) == 4     # one per (r, seed)
    for method in both.methods:
        alone = harness.run_sweep(tiny_spec(methods=[method]), jobs=1)
        harness.emit_report(alone, tmp_path / method)
    rows = [(tmp_path / name / "sweep.csv").read_text().splitlines()
            for name in ("both", "em", "weighted-em")]
    assert rows[0] == rows[1] + rows[2][1:]


def test_a_sweep_of_mbem_alone_writes_the_mbem_rows_of_a_full_sweep(tmp_path):
    every = tiny_spec(methods=list(methods.METHODS))
    harness.emit_report(harness.run_sweep(every, jobs=1), tmp_path / "every")
    alone = harness.run_sweep(tiny_spec(methods=["mbem"]), jobs=1)
    harness.emit_report(alone, tmp_path / "alone")
    rows = [(tmp_path / name / "sweep.csv").read_text().splitlines()
            for name in ("every", "alone")]
    assert [row for row in rows[0] if row.startswith("mbem,")] == rows[1][1:]


@pytest.mark.parametrize("mode", ["synthetic", "file"])
def test_shared_fits_change_no_record(monkeypatch, tmp_path, mode):
    # A unit shares its fits across methods; each method fitting alone,
    # on a fresh Unit of the same data, must give the same records, with
    # more fits.
    if mode == "synthetic":
        spec = tiny_spec(methods=list(methods.METHODS))
    else:
        spec = dataclasses.replace(
            file_spec(tmp_path)[0], methods=tuple(
                m for m in methods.METHODS if m != "oracle-weighted-em"))
    calls = []
    fit = methods.fit
    monkeypatch.setattr(methods, "fit",
                        lambda *args: calls.append(1) or fit(*args))
    counts = {"shared": 0, "alone": 0}
    try:
        for r in spec.redundancies:
            for seed in spec.seeds:
                shared = harness._run_unit(spec, r, seed)
                counts["shared"] += len(calls)
                calls.clear()
                unit, test_columns, y_test = harness._cell_data(spec, r,
                                                                seed)
                # replace copies the fields and starts an empty memo.
                alone = [harness._run_cell(
                    spec, method, r, seed,
                    (dataclasses.replace(unit), test_columns, y_test), {})
                    for method in spec.methods]
                counts["alone"] += len(calls)
                calls.clear()
                assert all(rec.error is None for rec in shared)
                assert ([dataclasses.replace(rec, wall_time=0.0)
                         for rec in shared]
                        == [dataclasses.replace(rec, wall_time=0.0)
                            for rec in alone])
    finally:
        harness._file_inputs.cache_clear()
    assert counts["shared"] < counts["alone"]


@pytest.mark.parametrize("mode", ["synthetic", "file"])
def test_every_fit_of_a_unit_draws_from_its_fit_stream(tmp_path, mode):
    spec = tiny_spec() if mode == "synthetic" else file_spec(tmp_path)[0]
    try:
        for r in spec.redundancies:
            for seed in spec.seeds:
                unit = harness._cell_data(spec, r, seed)[0]
                assert unit.seed == RngSeed(seed).child("fit", r)
                assert unit.cfg == spec.learner
                assert (unit.oracle_confusions is None) == (mode == "file")
    finally:
        harness._file_inputs.cache_clear()


@pytest.mark.parametrize("r", [1, 2])
def test_a_unit_evaluates_each_distinct_model_once(monkeypatch, r):
    models, evaluated = [], []
    train_method, zero_one_risk = harness.train_method, harness.zero_one_risk

    def train(*args, **kwargs):
        result = train_method(*args, **kwargs)
        models.append(result.model)
        return result

    def risk(model, *args):
        evaluated.append(model)
        return zero_one_risk(model, *args)

    monkeypatch.setattr(harness, "train_method", train)
    monkeypatch.setattr(harness, "zero_one_risk", risk)
    spec = tiny_spec(methods=list(methods.METHODS))
    assert all(rec.error is None for rec in harness._run_unit(spec, r, 0))
    distinct = {id(model) for model in models}
    if r == 1:   # mv, em and weighted-mv get one model
        assert len(distinct) < len(models)
    assert sorted(id(model) for model in evaluated) == sorted([*distinct] * 2)
