"""Aggregate reads leave the lazy schedule untouched.

``stats()``, ``snapshot()`` and ``Sorter.strongest_pairs`` rank every
dirty list they fold. A rank mid-stream must not freeze a list at that
moment's vector state: a service asked for its stats halfway through a
stream answers every later query exactly as one never asked.
"""

import pytest

from repro.core.cominer import CoMiner
from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.service.sharded import ShardedFarmer

READ_AT = 2_000


def final_answers(miner, trace) -> dict:
    return {fid: miner.correlators(fid) for fid in sorted({r.fid for r in trace})}


@pytest.fixture(scope="module")
def trace(synthetic_trace):
    return synthetic_trace("hp", 4_000, seed=3)


@pytest.mark.parametrize("read", ["stats", "snapshot"])
def test_sharded_ingest_stream_read_is_invisible(trace, read):
    cfg = FarmerConfig(n_shards=2, max_strength=0.3)

    def run(with_read: bool) -> dict:
        service = ShardedFarmer(cfg)
        service.ingest_stream((r, True) for r in trace[:READ_AT])
        if with_read:
            getattr(service, read)()
        service.ingest_stream((r, True) for r in trace[READ_AT:])
        return final_answers(service, trace)

    assert run(with_read=True) == run(with_read=False)


@pytest.mark.parametrize(
    "read",
    [
        lambda farmer: farmer.stats(),
        lambda farmer: farmer.snapshot(),
        lambda farmer: farmer.sorter.strongest_pairs(),
    ],
    ids=["stats", "snapshot", "strongest_pairs"],
)
def test_farmer_observe_read_is_invisible(trace, read):
    cfg = FarmerConfig(max_strength=0.3)

    def run(with_read: bool) -> dict:
        farmer = Farmer(cfg)
        for i, record in enumerate(trace, start=1):
            farmer.observe(record)
            if with_read and i == READ_AT:
                read(farmer)
        return final_answers(farmer, trace)

    assert run(with_read=True) == run(with_read=False)


def test_read_values_are_unchanged_by_the_demotion(trace):
    """The read itself reports the freshly ranked state: a second read
    straight after the first returns the same figures."""
    farmer = Farmer(FarmerConfig(max_strength=0.3))
    for record in trace[:READ_AT]:
        farmer.observe(record)
    first = farmer.snapshot()
    assert first.n_lists > 0
    assert farmer.snapshot() == first
    assert farmer.stats().n_entries == first.n_entries


def test_sharded_stats_rank_and_count_owned_lists_only(trace, monkeypatch):
    """Each shard's ``n_lists``/``n_entries`` cover the lists it owns, so
    they sum to ``snapshot()``; the halo lists echoes leave for foreign
    fids are not ranked by the read."""
    service = ShardedFarmer(FarmerConfig(n_shards=4, max_strength=0.3))
    for record in trace[:READ_AT]:
        service.observe(record)
        service.predict(record.fid)
    route = service.router.route
    halo_dirty = [
        fid
        for index, shard in enumerate(service.shards)
        for fid in shard.miner.dirty_nodes()
        if route(fid) != index
    ]
    assert halo_dirty
    owner = {id(shard.miner): index for index, shard in enumerate(service.shards)}
    ranked = []
    production = CoMiner.reevaluate

    def spy(miner, src):
        ranked.append((owner[id(miner)], src))
        return production(miner, src)

    monkeypatch.setattr(CoMiner, "reevaluate", spy)
    stats = service.stats()
    monkeypatch.undo()
    assert ranked
    assert all(route(fid) == index for index, fid in ranked)
    snap = service.snapshot()
    assert sum(shard.n_lists for shard in stats.shards) == snap.n_lists
    assert sum(shard.n_entries for shard in stats.shards) == snap.n_entries
