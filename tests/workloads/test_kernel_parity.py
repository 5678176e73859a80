"""Satellite property: mining accuracy is kernel-invariant.

The two re-rank kernels (bulk one-pass, entrywise reference) are
bit-identical on the ranked lists by construction; this suite asserts the consequence that matters to the
evaluation layer — identical precision/recall/headroom on every
planted-truth scenario — so a kernel divergence surfaces as an
accuracy diff, not only as a list-order diff in the kernel suites.
"""

from __future__ import annotations

import pytest

from repro.core.config import FarmerConfig
from repro.workloads import SCENARIO_NAMES, mine_scenario, score_miner

EVENTS = 2000


KERNELS = ("bulk", "entrywise")


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_precision_recall_identical_across_kernels(name, scenario_trace):
    records, truth = scenario_trace(name, EVENTS)
    reports = []
    for kernel in KERNELS:
        miner = mine_scenario(records, FarmerConfig(rerank_kernel=kernel))
        reports.append(
            score_miner(miner, truth, records, scenario=name)
        )
    first = reports[0]
    for other in reports[1:]:
        assert other == first  # exact equality: kernels are bit-identical
