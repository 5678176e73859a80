"""Queued boundary echoes: queue semantics and the just-in-time drain.

Two load-bearing properties:

* the queued delivery is bit-for-bit equivalent to synchronous
  per-request echoes — the queue drains before anything else can land
  on the destination shard, so the destination's window geometry is
  unchanged;
* echoes are delivered before the destination's next owned
  observation, before any query routed to it, at the batch-``mine``
  ingest barrier and on an explicit ``flush_echoes``, so queries never
  miss an enqueued echo even though delivery is deferred.
"""

import pytest

from repro.core.config import FarmerConfig
from repro.service.sharded import ShardedFarmer
from repro.traces.synthetic import generate_trace
from tests.conftest import sequence_records


class TestJustInTimeDrain:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_bit_identical_to_synchronous(self, n_shards):
        """Acceptance property: the queued echoes reproduce the synchronous schedule bit-for-bit — every query
        point over a real trace. The synchronous reference is the same
        service flushing after every request (per-request delivery),
        driven in lockstep so both sides rank at the same points."""
        trace = generate_trace("hp", 6_000, seed=11)
        cfg = FarmerConfig(max_strength=0.3, n_shards=n_shards)
        queued = ShardedFarmer(cfg)
        sync = ShardedFarmer(cfg)
        for record in trace:
            queued.observe(record)
            sync.observe(record)
            sync.flush_echoes()  # degenerate to synchronous delivery
            assert queued.predict(record.fid) == sync.predict(record.fid)
            assert queued.correlators(record.fid) == sync.correlators(record.fid)
        assert queued.snapshot() == sync.snapshot()
        assert queued.n_boundary_echoes == sync.n_boundary_echoes

    def test_queue_drains_before_next_owned_observe(self):
        """After a boundary request the echo sits queued until the
        destination shard's next owned observation (or query)."""
        cfg = FarmerConfig(max_strength=0.0, n_shards=2, weight_p=0.0)
        service = ShardedFarmer(cfg)
        r_even, r_odd = sequence_records([2, 3])
        service.observe(r_even)  # shard 0
        service.observe(r_odd)  # shard 1; echo for shard 0 queued
        assert service.n_pending_echoes == 1
        service.observe(sequence_records([4])[0])  # shard 0 drains first
        # shard 0's queue drained before its owned observe; the new
        # boundary request 4 queued its own echo for shard 1
        assert len(service._echo_queues[0]) == 0
        assert len(service._echo_queues[1]) == 1
        assert 3 in [e.fid for e in service.correlators(2)]

    def test_query_drains_owner_queue(self):
        cfg = FarmerConfig(max_strength=0.0, n_shards=2, weight_p=0.0)
        service = ShardedFarmer(cfg)
        for r in sequence_records([2, 3]):
            service.observe(r)
        assert service.n_pending_echoes == 1
        # querying fid 2 routes to shard 0 and must deliver the echo
        assert 3 in [e.fid for e in service.correlators(2)]
        assert service.n_pending_echoes == 0


class TestBatchedDrain:
    """Whole-queue drains at the service-wide barriers (``flush_echoes``
    and the batch-``mine`` ingest barrier)."""

    def test_explicit_flush_and_counters(self):
        cfg = FarmerConfig(max_strength=0.0, n_shards=2, weight_p=0.0)
        service = ShardedFarmer(cfg)
        for r in sequence_records([2, 3] * 5):
            service.observe(r)
        queued = service.n_pending_echoes
        assert queued == 1  # the last boundary request's echo
        before = service.n_echo_flushes
        service.flush_echoes()
        assert service.n_pending_echoes == 0
        assert service.n_echo_flushes == before + 1
        assert service.correlation_degree(2, 3) > 0.0

    def test_mine_barrier_drains_under_chunked_schedule(self):
        """Chunked batch mining drains at every ingest barrier: queues
        are empty after each ``mine`` call, and the chunked run places
        exactly the echoes of one whole-trace ``mine``."""
        trace = generate_trace("hp", 3_000, seed=9)
        cfg = FarmerConfig(max_strength=0.3, n_shards=4)
        chunked = ShardedFarmer(cfg)
        for start in range(0, len(trace), 700):  # uneven chunk boundary
            chunked.mine(trace[start : start + 700])
            assert chunked.n_pending_echoes == 0
        whole = ShardedFarmer(cfg).mine(trace)
        assert chunked.n_observed == whole.n_observed == len(trace)
        assert chunked.n_boundary_echoes == whole.n_boundary_echoes


class TestStatsSurface:
    def test_stats_reports_echo_counters(self):
        cfg = FarmerConfig(n_shards=4)
        service = ShardedFarmer(cfg)
        service.mine(generate_trace("hp", 1_000, seed=2))
        stats = service.stats()
        assert stats.n_echo_flushes == service.n_echo_flushes
        assert stats.n_boundary_echoes == service.n_boundary_echoes
        assert service.n_pending_echoes == 0  # stats() flushes first
