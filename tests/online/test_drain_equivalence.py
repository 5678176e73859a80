"""The acceptance property: online ingestion + drain ≡ batch ``mine()``.

A trace fed through the online service — agent offers, bounded-queue
admission, consumer batches through ``ingest_stream``, then a full
``drain()`` barrier — must answer every query bit-identically to a
batch ``mine()`` of the same records on an identically-configured
service. Online arrival changes *when* work happens, never what is
mined. Pinned over ≥6k-record traces, both router families, with
replication on (ISSUE 7 acceptance).
"""

import pytest

from repro.core.config import FarmerConfig
from repro.online.pipeline import Admission, AdmissionPolicy, OnlineService
from repro.service.sharded import ShardedFarmer
from tests.conftest import cached_trace


def assert_bit_identical(online_service, batch_service, records):
    """Every distinct fid's predict and correlators must agree, and the
    aggregate snapshots must be equal."""
    fids = sorted({r.fid for r in records})
    for fid in fids:
        assert online_service.predict(fid) == batch_service.predict(fid)
        assert online_service.correlators(fid) == batch_service.correlators(
            fid
        )
    assert online_service.snapshot() == batch_service.snapshot()


@pytest.mark.parametrize("router", ["hash", "consistent_hash"])
class TestDrainEquivalence:
    def config(self, router, **overrides):
        base = dict(
            n_shards=4,
            shard_policy=router,
            max_strength=0.3,
            replication=True,
            standby_sync_interval=512,
        )
        base.update(overrides)
        return FarmerConfig(**base)

    def test_online_after_drain_equals_batch_mine(self, router):
        """The headline property, 6k records, consumer thread live."""
        records = cached_trace("hp", 6_000, 13)
        cfg = self.config(router)
        with OnlineService(cfg, batch_size=128) as online:
            for record in records:
                assert online.offer(record) is Admission.ACCEPTED
                # capacity 4096 > 6000/consumer drain rate would flake:
                # keep the queue honest by draining inline if deep
                if online.pipeline.depth > 2_000:
                    online.drain()
            online.drain()
        batch = ShardedFarmer(cfg).mine(records)
        assert online.service.n_observed == batch.n_observed == len(records)
        assert_bit_identical(online, batch, records)

    def test_equivalence_without_consumer_thread(self, router):
        """drain() alone (no background consumer) is the same barrier."""
        records = cached_trace("hp", 6_000, 13)
        cfg = self.config(router)
        online = OnlineService(
            cfg,
            # the whole trace queues up front: watermarks wide open so
            # nothing degrades (degradation is test_overload_shedding's
            # subject, not this one's)
            policy=AdmissionPolicy(
                capacity=8_192, echo_watermark=1.0, defer_watermark=1.0
            ),
            batch_size=256,
        )
        for record in records:
            assert online.offer(record) is Admission.ACCEPTED
        online.drain()
        batch = ShardedFarmer(cfg).mine(records)
        assert_bit_identical(online, batch, records)


class TestIngestStreamEquivalence:
    """The seam underneath: chunked ingest_stream reproduces both
    reference schedules — one batch ``mine`` and the record-at-a-time
    ``observe`` loop — whatever the batch seams."""

    def stream_chunked(self, cfg, records, chunk=97):
        streamed = ShardedFarmer(cfg)
        for start in range(0, len(records), chunk):  # ragged batch seams
            streamed.ingest_stream(
                (r, True) for r in records[start : start + chunk]
            )
        for index in range(len(streamed.shards)):
            streamed.flush_shard(index)
        return streamed

    def assert_same_answers(self, left, right, records):
        for fid in sorted({r.fid for r in records}):
            assert left.predict(fid) == right.predict(fid)
        assert left.snapshot() == right.snapshot()

    def test_multi_batch_ingest_equals_mine(self):
        records = cached_trace("hp", 6_000, 13)
        cfg = FarmerConfig(n_shards=4, max_strength=0.3)
        streamed = self.stream_chunked(cfg, records)
        batch = ShardedFarmer(cfg).mine(records)
        self.assert_same_answers(streamed, batch, records)

    def test_multi_batch_ingest_matches_observe_cadence(self):
        records = cached_trace("hp", 6_000, 13)
        cfg = FarmerConfig(n_shards=4, max_strength=0.3)
        streamed = self.stream_chunked(cfg, records)
        reference = ShardedFarmer(cfg)
        for record in records:
            reference.observe(record)
        assert streamed.n_boundary_echoes == reference.n_boundary_echoes
        self.assert_same_answers(streamed, reference, records)

    def test_chunking_is_batch_size_independent(self):
        """The seam property in one line: two different batch shapes of
        the same stream land on identical state."""
        records = cached_trace("hp", 3_000, 13)
        cfg = FarmerConfig(n_shards=4, max_strength=0.3)
        a = self.stream_chunked(cfg, records, chunk=97)
        b = self.stream_chunked(cfg, records, chunk=512)
        self.assert_same_answers(a, b, records)
