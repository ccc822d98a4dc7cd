"""The paper's qualitative claims, in a scenario where the methods differ.

The default scenario (margin 6, d = 2K) lets every method reach near-zero
test risk, MV included. With four classes, margin 2 and class-wise
hammer-spammer workers that are reliable on a class with probability 0.2,
one label per example leaves MV and weighted EM with about 0.27 test
risk, and MBEM, which estimates each worker's confusions against the
model, with about 0.22. The scenario is configs/paper-claim-1.yaml, which
`mbem sweep --config` runs as it is. The same scenario also pins the
mechanism behind the claim: at r=1, MBEM's confusion estimates approach
those made from the true labels, while classic EM's do not.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from mbem import harness
from mbem.core import estimate_confusions_and_prior
from mbem.methods import run_mbem
from mbem.seeding import RngSeed

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def load_config(name):
    with open(CONFIGS / name) as fh:
        return yaml.safe_load(fh)


def test_every_config_file_builds_a_sweep_spec():
    names = sorted(path.name for path in CONFIGS.iterdir())
    assert names
    for name in names:
        harness.spec_from_dict(load_config(name))


@pytest.mark.slow
def test_mbem_beats_mv_and_weighted_em_at_one_label_per_example():
    aggs = harness.run_sweep(harness.spec_from_dict(
        load_config("paper-claim-1.yaml"))).aggregates
    mbem = aggs[("mbem", 1)]
    for baseline in ("mv", "weighted-em"):
        other = aggs[(baseline, 1)]
        margin = 2 * math.hypot(mbem.stderr, other.stderr)
        assert mbem.mean < other.mean - margin, (baseline, mbem, other)


def tv_error(estimates, confusions, ann, y):
    """Total-variation distance between estimated and true confusion rows,
    averaged over records: each record weighs the row of its worker and
    its example's true class."""
    rows = 0.5 * np.abs(estimates - confusions).sum(axis=2)
    return float(rows[ann.worker_ids, y[ann.example_ids]].mean())


@pytest.mark.slow
def test_mbem_estimates_worker_quality_from_one_label_per_example():
    # The abstract's mechanism, in paper-claim-1's scenario at r=1. Mean
    # errors over seeds 0-2: MBEM 0.225 / 0.183 / 0.123 at budgets 1000 /
    # 4000 / 16000, the estimator on the true labels 0.217 / 0.162 /
    # 0.095, and classic EM, which believes every worker perfect,
    # 0.564 / 0.618 / 0.615. The bounds below hold for every 3-seed block
    # of seeds 0-29, whose extremes are a fall of 0.038 per step, MBEM
    # 0.038 above the true-label estimator and classic EM 2.15 times MBEM.
    cfg = load_config("paper-claim-1.yaml")
    errors = []
    for budget in (1000, 4000, 16000):
        spec = harness.spec_from_dict({**cfg, "budget": budget})
        per_seed = []
        for seed in (0, 1, 2):
            X, y, ann, confusions, _, _ = harness._cell_data(spec, 1, seed)
            fitted = run_mbem(X, ann, spec.mbem, RngSeed(seed).child("fit", 1))
            per_seed.append([
                tv_error(estimates, confusions, ann, y) for estimates in (
                    fitted.confusions,
                    estimate_confusions_and_prior(ann, y, 1.0)[0],
                    ann.classic_em[1])])
        errors.append(np.mean(per_seed, axis=0))
    mbem, true_labels, classic_em = np.transpose(errors)
    assert np.all(np.diff(mbem) < -0.02), mbem
    assert np.all(mbem - true_labels < 0.05), (mbem, true_labels)
    assert np.all(classic_em > 2 * mbem), (classic_em, mbem)
