"""Satellite property: tiering metrics are rerank-kernel-invariant.

The two re-rank kernels (bulk one-pass, entrywise reference) produce
bit-identical Correlator Lists; this suite
asserts the consequence at the placement layer — the full tiered
``SimulationReport`` (fast hits, promotions, hint traffic, latency
percentiles) is identical whichever kernel mined the correlators that
the correlated policy co-promotes. A kernel divergence would surface
here as a fast-hit-ratio diff, not only as a list-order diff.
"""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro.experiments.common import cached_trace, farmer_config_for
from repro.experiments.tiering_experiment import cached_scenario
from repro.service.sharded import ShardedFarmer
from repro.storage.cluster import SimulationConfig, run_simulation
from repro.storage.prefetch import ShardedFarmerPrefetcher

EVENTS = 1200


KERNELS = ("bulk", "entrywise")


def _report(records, kernel: str):
    config = SimulationConfig(
        n_mds=4, cache_capacity=64, tiering="correlated", tier_fraction=0.1
    )
    engine = ShardedFarmerPrefetcher(
        ShardedFarmer(farmer_config_for("hp", n_shards=4, rerank_kernel=kernel))
    )
    return run_simulation(records, engine, config)


@pytest.mark.parametrize(
    "workload", ("hp", "pipeline"), ids=("hp-trace", "scenario")
)
def test_tiered_report_identical_across_kernels(workload):
    if workload == "hp":
        records = cached_trace("hp", EVENTS, 1)
    else:
        records, _ = cached_scenario("pipeline", EVENTS, 1)
    reports = [
        # each kernel keeps different scratch structures, so the
        # footprint differs; every behavioural metric must not
        replace(_report(records, kernel), miner_memory_bytes=0)
        for kernel in KERNELS
    ]
    first = reports[0]
    for other in reports[1:]:
        assert other == first  # exact equality: kernels are bit-identical
