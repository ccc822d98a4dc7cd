"""The paper's qualitative claims, in a scenario where the methods differ.

The default scenario (margin 6, d = 2K) lets every method reach near-zero
test risk, MV included. With four classes, margin 2 and class-wise
hammer-spammer workers that are reliable on a class with probability 0.2,
one label per example leaves MV and weighted EM with about 0.27 test
risk, and MBEM, which estimates each worker's confusions against the
model, with about 0.22.
"""

import math

import pytest

from mbem import harness

PAPER_K4 = {"budget": 4000, "redundancies": [1],
            "methods": ["mv", "weighted-em", "mbem"], "classes": 4,
            "feature_dim": 8, "margin": 2.0, "seeds": [0, 1, 2],
            "worker_model": {"kind": "classwise_hammer_spammer",
                             "gamma": 0.2}}


@pytest.mark.slow
def test_mbem_beats_mv_and_weighted_em_at_one_label_per_example():
    aggs = harness.run_sweep(harness.spec_from_dict(PAPER_K4)).aggregates
    mbem = aggs[("mbem", 1)]
    for baseline in ("mv", "weighted-em"):
        other = aggs[(baseline, 1)]
        margin = 2 * math.hypot(mbem.stderr, other.stderr)
        assert mbem.mean < other.mean - margin, (baseline, mbem, other)
