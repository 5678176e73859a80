"""Aggregated service stats: rollups, dedup'd memory accounting, and the
public Function-1 count (``Farmer.stats().f1_evaluations``)."""

import pytest

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.service.sharded import ShardedFarmer
from repro.service.stats import ServiceStats
from repro.traces.synthetic import generate_trace
from tests.conftest import sequence_records


def mined_service(n_shards=4, n_events=2_000, **cfg) -> ShardedFarmer:
    service = ShardedFarmer(FarmerConfig(n_shards=n_shards, **cfg))
    for record in generate_trace("hp", n_events, seed=2):
        service.observe(record)
        service.predict(record.fid)
    return service


class TestServiceStats:
    def test_rollup_fields(self):
        service = mined_service()
        stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.n_shards == 4
        assert stats.n_observed == 2_000
        assert len(stats.shards) == 4
        # per-shard n_observed includes absorbed echoes
        assert sum(s.n_observed for s in stats.shards) == (
            stats.n_observed + stats.n_boundary_echoes
        )
        assert stats.n_files == sum(s.n_files for s in stats.shards)
        assert stats.n_edges == sum(s.n_edges for s in stats.shards)
        assert stats.memory_bytes == service.memory_bytes()
        assert stats.memory_megabytes == pytest.approx(stats.memory_bytes / 1e6)

    def test_shared_stores_counted_once(self):
        """Total memory must not scale the shared stores by n_shards."""
        service = mined_service()
        shard_bytes = sum(s.memory_bytes() for s in service.shards)
        expected = (
            service.vocabulary.approx_bytes()
            + service.vector_store.approx_bytes()
            + shard_bytes
        )
        assert service.memory_bytes() == expected
        # and no shard accounts the injected components itself
        for shard in service.shards:
            assert not shard.owns_vocabulary
            assert not shard.constructor.owns_vectors

    def test_shared_f1_counter_is_service_wide(self):
        service = mined_service()
        for shard in service.shards:
            assert shard.miner.sim_cache is service.sim_cache
        stats = service.stats()  # flushes, so it evaluates too
        assert stats.f1_evaluations == service.sim_cache.stats().evaluations > 0


class TestEchoAccountingFields:
    """Per-destination echo-queue visibility through ``ServiceStats``
    (ISSUE 7 satellite): queue depths as the caller found them, drop
    counts by destination, and the online path's shed counter."""

    def boundary_service(self, **cfg) -> ShardedFarmer:
        base = dict(n_shards=2, max_strength=0.0, weight_p=0.0)
        base.update(cfg)
        service = ShardedFarmer(FarmerConfig(**base))
        for r in sequence_records([2, 3] * 4):
            service.observe(r)
        return service

    def test_depths_snapshot_precedes_the_rollup_drain(self):
        service = self.boundary_service()
        stats = service.stats()
        assert len(stats.echo_queue_depths) == 2
        # the last boundary request's echo still waits for shard 0
        assert stats.echo_queue_depths == (1, 0)
        # the rollup itself drained them; a second read reports zeros
        assert sum(service.stats().echo_queue_depths) == 0

    def test_drop_counts_attributed_to_the_failed_destination(self):
        service = self.boundary_service(replication=True)
        service.fail_shard(0)
        for r, allow in ((r, True) for r in sequence_records([2, 3] * 4)):
            service.ingest_stream([(r, allow)])
        stats = service.stats()
        assert stats.echo_drops_by_shard[0] > 0
        assert stats.echo_drops_by_shard[1] == 0
        assert sum(stats.echo_drops_by_shard) == stats.n_echoes_dropped

    def test_shed_counter_reaches_stats(self):
        service = self.boundary_service()
        service.ingest_stream(
            (r, False) for r in sequence_records([2, 3] * 3)
        )
        # 5 transitions inside the stream, plus the boundary against the
        # predecessor carried over from the pre-observed warmup trace
        assert service.stats().n_echoes_shed == 6

    def test_fields_default_clean_on_quiet_service(self):
        service = mined_service(n_shards=2)
        # JIT drains lazily, before the destination's next own event —
        # the trailing record's echo may still sit queued, so settle it
        service.flush_echoes()
        stats = service.stats()
        assert stats.echo_drops_by_shard == (0, 0)
        assert stats.n_echoes_shed == 0
        assert sum(stats.echo_queue_depths) == 0


class TestFarmerStatsSurface:
    def test_stats_expose_f1_evaluations(self):
        """Benchmarks/experiments read the Function-1 count off
        ``Farmer.stats()`` / ``Farmer.f1_evaluations()`` rather than
        ``farmer.miner`` internals."""
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        for record in generate_trace("hp", 500, seed=1):
            farmer.observe(record)
            farmer.predict(record.fid)
        stats = farmer.stats()
        assert stats.f1_evaluations > 0
        assert farmer.f1_evaluations() == stats.f1_evaluations
        assert farmer.miner.sim_cache.stats().lookups == stats.f1_evaluations
