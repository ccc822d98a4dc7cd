"""The benchmark's workloads: sweep specs, and the input files file mode reads.

Each workload is a fixed-budget sweep config in the mapping form that
``harness.spec_from_dict`` accepts, plus the process count it runs at.
Everything random derives from the workload seed, so one seed always
gives the same inputs. ``tiny=True`` shrinks every size so the
self-tests can run each workload in well under a second; the shape of
the sweep (methods, redundancies, learner kind, file or synthetic mode)
stays the same.

This module imports nothing from numpy or mbem at module level, so the
entry point can list workloads before it knows whether the checkout
holds the package.
"""

from __future__ import annotations

from pathlib import Path

NAMES = ("paper-k4", "label-heavy", "file-mlp")

# Named in README.md: later performance claims are confirmed on this
# seed, which no workload or bound was tuned on.
HELD_OUT_SEED = 1712

INPUT_FILES = {
    "annotations_file": "annotations.csv",
    "features_file": "features.csv",
    "truth_file": "truth.csv",
    "test_features_file": "test_features.csv",
    "test_truth_file": "test_truth.csv",
}

# Sizes of the annotation pool that file-mlp subsamples from.
_FILE_POOL = {"n": 20000, "r": 5, "K": 4, "d": 8, "m": 200, "gamma": 0.2,
              "margin": 2.0, "n_test": 2000}
_FILE_POOL_TINY = dict(_FILE_POOL, n=300, m=20, n_test=200)


def jobs(name: str) -> int:
    """Worker processes the workload's sweep runs with."""
    return 2 if name == "file-mlp" else 1


def sweep_config(name: str, seed: int, inputs_dir, tiny: bool = False) -> dict:
    """Config mapping for spec_from_dict; inputs_dir is used by file-mlp only."""
    if name == "paper-k4":
        # The paper's scenario: the methods differ and the learner dominates.
        return {
            "budget": 400 if tiny else 8000,
            "redundancies": [1, 3, 5],
            "methods": ["mv", "em", "weighted-mv", "weighted-em", "mbem",
                        "oracle-weighted-em", "oracle-correct", "truth"],
            "worker_model": {"kind": "classwise_hammer_spammer", "gamma": 0.2},
            "classes": 4,
            "feature_dim": 8,
            "margin": 2.0,
            "m": 20 if tiny else 100,
            "n_test": 200 if tiny else 4000,
            "seeds": [seed],
            "learner": {"kind": "multinomial_logistic",
                        "epochs": 10 if tiny else 300},
        }
    if name == "label-heavy":
        # Many labels per example and short training: aggregation
        # dominates. Classic EM's iteration count varies with the data,
        # so each sweep averages it over eight replicate seeds.
        return {
            "budget": 1800 if tiny else 45000,
            "redundancies": [3, 9],
            "methods": ["mv", "em", "weighted-em", "oracle-weighted-em"],
            "worker_model": {"kind": "classwise_hammer_spammer", "gamma": 0.3},
            "classes": 10,
            "feature_dim": 20,
            "margin": 2.0,
            "m": 50 if tiny else 1000,
            "n_test": 200 if tiny else 2000,
            "seeds": [seed + i for i in range(8)],
            "learner": {"kind": "multinomial_logistic", "epochs": 5},
        }
    if name == "file-mlp":
        # File mode with a mini-batch MLP over a process pool: I/O and
        # per-example subsampling dominate.
        pool = _FILE_POOL_TINY if tiny else _FILE_POOL
        cfg = {
            "budget": 300 if tiny else 20000,
            "redundancies": [1, 2, 5],
            "methods": ["mv", "weighted-em", "mbem"],
            "worker_model": {"kind": "classwise_hammer_spammer",
                             "gamma": pool["gamma"]},
            "classes": pool["K"],
            "feature_dim": pool["d"],
            "margin": pool["margin"],
            "m": pool["m"],
            "n_test": pool["n_test"],
            "seeds": [seed, seed + 1],
            "learner": {"kind": "one_hidden_layer_mlp", "hidden_units": 16,
                        "batch_size": 256, "learning_rate": 0.5,
                        "epochs": 5},
        }
        cfg.update({key: str(Path(inputs_dir) / fname)
                    for key, fname in INPUT_FILES.items()})
        return cfg
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def write_inputs(name: str, seed: int, inputs_dir, tiny: bool = False) -> None:
    """Write the CSVs a file-mode workload reads; other workloads need none.

    The files come from the package's own simulator and writers, drawn
    from substreams of the workload seed.
    """
    if name != "file-mlp":
        return
    from mbem import io as mbio
    from mbem.seeding import RngSeed
    from mbem.simulate import (WorkerSkillModel, assign_workers,
                               corrupt_labels, make_synthetic_dataset,
                               sample_worker_pool)

    pool = _FILE_POOL_TINY if tiny else _FILE_POOL
    root = RngSeed(seed).child("perfbench-inputs")
    skill = WorkerSkillModel(kind="classwise_hammer_spammer",
                             gamma=pool["gamma"], K=pool["K"])
    X, y = make_synthetic_dataset(pool["n"], pool["K"], pool["d"],
                                  pool["margin"], root.child("train"))
    X_test, y_test = make_synthetic_dataset(pool["n_test"], pool["K"],
                                            pool["d"], pool["margin"],
                                            root.child("test"))
    conf = sample_worker_pool(skill, pool["m"], root.child("workers"))
    assignment = assign_workers(pool["n"], pool["r"], pool["m"],
                                root.child("assign"))
    ann = corrupt_labels(y, assignment, conf, root.child("corrupt"))

    out = Path(inputs_dir)
    out.mkdir(parents=True, exist_ok=True)
    mbio.write_annotations(out / INPUT_FILES["annotations_file"], ann)
    mbio.write_features(out / INPUT_FILES["features_file"], X)
    mbio.write_truth(out / INPUT_FILES["truth_file"], y)
    mbio.write_features(out / INPUT_FILES["test_features_file"], X_test)
    mbio.write_truth(out / INPUT_FILES["test_truth_file"], y_test)
