"""The paper's qualitative claims, in a scenario where the methods differ.

The default scenario (margin 6, d = 2K) lets every method reach near-zero
test risk, MV included. With four classes, margin 2 and class-wise
hammer-spammer workers that are reliable on a class with probability 0.2,
one label per example leaves MV and weighted EM with about 0.27 test
risk, and MBEM, which estimates each worker's confusions against the
model, with about 0.22. The scenario is configs/paper-claim-1.yaml, which
`mbem sweep --config` runs as it is.
"""

import math
from pathlib import Path

import pytest
import yaml

from mbem import harness

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
