"""``ShardedFarmer.ingest_stream``: the online consumer's batch seam.

Covers the two online twists over plain ``observe``: per-record echo
control (``allow_echo=False`` sheds the boundary echo and counts it)
and drop-and-count for failed-shard partitions.
"""

import pytest

from repro.core.config import FarmerConfig
from repro.service.sharded import ShardedFarmer
from tests.conftest import sequence_records


def boundary_trace(n=12):
    """fids alternating across a 2-shard hash split: every adjacent
    pair is a boundary, so every record from the second on echoes."""
    return sequence_records([2, 3] * (n // 2))


class TestStreamReport:
    def test_accepted_and_echoes_match_observe_path(self):
        cfg = FarmerConfig(n_shards=2, max_strength=0.0, weight_p=0.0)
        streamed = ShardedFarmer(cfg)
        reference = ShardedFarmer(cfg)
        records = boundary_trace(12)
        report = streamed.ingest_stream((r, True) for r in records)
        for r in records:
            reference.observe(r)
        assert report.n_accepted == 12
        assert report.n_echoes_shed == 0
        assert report.n_dropped_failed == 0
        assert streamed.n_boundary_echoes == reference.n_boundary_echoes
        assert report.n_echoes_placed == reference.n_boundary_echoes

    def test_multi_batch_carries_boundary_state(self):
        """The predecessor-owner carry across batch seams: a boundary
        pair split across two ingest_stream calls still echoes."""
        cfg = FarmerConfig(n_shards=2, max_strength=0.0, weight_p=0.0)
        service = ShardedFarmer(cfg)
        first, second = sequence_records([2, 3])
        service.ingest_stream([(first, True)])
        report = service.ingest_stream([(second, True)])
        assert report.n_echoes_placed == 1
        assert service.n_boundary_echoes == 1

    def test_op_filter_skips_without_counting(self):
        cfg = FarmerConfig(
            n_shards=2, max_strength=0.0, op_filter=("open",)
        )
        service = ShardedFarmer(cfg)
        records = sequence_records([2, 3], op="read")
        report = service.ingest_stream((r, True) for r in records)
        assert report.n_accepted == 0
        assert service.n_observed == 0


class TestEchoShedding:
    def test_allow_echo_false_sheds_and_counts(self):
        cfg = FarmerConfig(n_shards=2, max_strength=0.0, weight_p=0.0)
        service = ShardedFarmer(cfg)
        records = boundary_trace(8)  # 7 boundary transitions
        report = service.ingest_stream((r, False) for r in records)
        assert report.n_accepted == 8
        assert report.n_echoes_placed == 0
        assert report.n_echoes_shed == 7
        assert service.n_echoes_shed == 7
        # the boundary *happened* (geometry is truthful), the delivery
        # was sacrificed
        assert service.n_boundary_echoes == 7

    def test_shed_echo_loses_only_the_cross_shard_edge(self):
        """An echo-shed record still mines on its owner shard: only the
        predecessor shard's view of the pair is given up."""
        cfg = FarmerConfig(n_shards=2, max_strength=0.0, weight_p=0.0)
        full = ShardedFarmer(cfg)
        degraded = ShardedFarmer(cfg)
        records = sequence_records([2, 3, 2, 3])
        full.ingest_stream((r, True) for r in records)
        degraded.ingest_stream((r, False) for r in records)
        assert degraded.n_observed == full.n_observed
        # owner-shard mining is intact: shard 1 owns fid 3 and saw it
        assert degraded.shards[1].n_observed > 0
        # but the echoed cross-shard lists are missing on the neighbour
        assert degraded.shards[0].n_observed < full.shards[0].n_observed

    def test_shed_count_reaches_service_stats(self):
        cfg = FarmerConfig(n_shards=2, max_strength=0.0, weight_p=0.0)
        service = ShardedFarmer(cfg)
        service.ingest_stream((r, False) for r in boundary_trace(6))
        stats = service.stats()
        assert stats.n_echoes_shed == 5


class TestFailedShardDegradation:
    def make_failed(self):
        cfg = FarmerConfig(
            n_shards=2, max_strength=0.0, weight_p=0.0, replication=True
        )
        service = ShardedFarmer(cfg)
        service.fail_shard(1)
        return service

    def test_failed_partition_drops_and_counts(self):
        service = self.make_failed()
        records = boundary_trace(10)  # half owned by the failed shard
        report = service.ingest_stream((r, True) for r in records)
        assert report.n_accepted == 5
        assert report.n_dropped_failed == 5
        assert service.n_observed == 5  # only the healthy partition

    def test_echoes_to_failed_destination_drop_and_count_per_dest(self):
        service = self.make_failed()
        records = boundary_trace(10)
        service.ingest_stream((r, True) for r in records)
        # every surviving record (owner shard 0) follows a record owned
        # by failed shard 1, so its echo targets shard 1 and is dropped
        assert service.echo_drop_counts[1] > 0
        assert service.echo_drop_counts[0] == 0
        assert sum(service.echo_drop_counts) == service.stats().n_echoes_dropped

    def test_batch_entry_point_still_raises(self):
        from repro.errors import ShardFailedError

        service = self.make_failed()
        with pytest.raises(ShardFailedError):
            service.observe(sequence_records([3])[0])

