"""The bounded queue: watermark admission exactness and consumption."""

import pytest

from repro.core.config import FarmerConfig
from repro.errors import ConfigError, TraceFormatError
from repro.online.pipeline import (
    Admission,
    AdmissionPolicy,
    IngestPipeline,
    OnlineService,
)
from repro.online.telemetry import Telemetry
from tests.conftest import make_record, sequence_records


class TestAdmissionPolicy:
    def test_watermark_depths(self):
        policy = AdmissionPolicy(
            capacity=100, echo_watermark=0.5, defer_watermark=0.9
        )
        assert policy.echo_depth == 50
        assert policy.defer_depth == 90

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0},
            {"echo_watermark": 0.0},
            {"echo_watermark": 0.8, "defer_watermark": 0.5},
            {"defer_watermark": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            AdmissionPolicy(**kwargs)


class TestAdmissionLadder:
    def make(self, capacity=10, echo=0.5, defer=0.9, batch=100):
        return IngestPipeline(
            AdmissionPolicy(
                capacity=capacity, echo_watermark=echo, defer_watermark=defer
            ),
            batch_size=batch,
        )

    def test_ladder_engages_in_exact_order(self):
        """capacity 10, echo mark 5, defer mark 9: the first 5 offers
        mine fully, the next 4 are admitted echo-shed, and everything
        after defers — no record is ever silently lost below the bound."""
        pipe = self.make()
        results = [pipe.offer(make_record(i)) for i in range(12)]
        assert results[:5] == [Admission.ACCEPTED] * 5
        assert results[5:9] == [Admission.ACCEPTED_ECHO_SHED] * 4
        assert results[9:] == [Admission.DEFERRED] * 3
        assert pipe.depth == 9  # deferred offers are NOT enqueued

    def test_shed_only_at_the_hard_bound(self):
        """With the defer watermark at 1.0 the defer rung vanishes and
        the hard bound sheds — and *only* the hard bound: every record
        below capacity was admitted."""
        pipe = self.make(capacity=6, echo=0.5, defer=1.0)
        results = [pipe.offer(make_record(i)) for i in range(8)]
        assert results[:3] == [Admission.ACCEPTED] * 3
        assert results[3:6] == [Admission.ACCEPTED_ECHO_SHED] * 3
        assert results[6:] == [Admission.SHED] * 2
        counters = pipe.counters()
        assert counters.n_accepted == 6
        assert counters.n_shed == 2

    def test_allow_echo_flag_rides_the_queue(self):
        pipe = self.make(capacity=4, echo=0.5, defer=1.0)
        for i in range(4):
            pipe.offer(make_record(i))
        batch = pipe.pop_batch()
        assert [allow for _, allow in batch] == [True, True, False, False]

    def test_draining_reopens_admission(self):
        pipe = self.make(capacity=4, echo=1.0, defer=1.0)
        for i in range(4):
            pipe.offer(make_record(i))
        assert pipe.offer(make_record(99)) is Admission.SHED
        pipe.pop_batch()
        assert pipe.offer(make_record(100)) is Admission.ACCEPTED

    def test_counters_account_for_everything(self):
        pipe = self.make()
        for i in range(12):
            pipe.offer(make_record(i))
        counters = pipe.counters()
        assert counters.n_offered == 12
        assert counters.n_accepted == 9
        assert counters.n_echo_degraded == 4
        assert counters.n_deferred == 3
        assert counters.n_shed == 0

    def test_admission_telemetry_counters(self):
        telemetry = Telemetry()
        pipe = IngestPipeline(
            AdmissionPolicy(capacity=4, echo_watermark=0.5, defer_watermark=1.0),
            telemetry=telemetry,
        )
        for i in range(5):
            pipe.offer(make_record(i))
        assert telemetry.counter("admission.accepted") == 2
        assert telemetry.counter("admission.accepted_echo_shed") == 2
        assert telemetry.counter("admission.shed") == 1


class TestPopBatch:
    def test_respects_batch_size(self):
        pipe = IngestPipeline(AdmissionPolicy(capacity=100), batch_size=3)
        for i in range(7):
            pipe.offer(make_record(i))
        assert len(pipe.pop_batch()) == 3
        assert len(pipe.pop_batch()) == 3
        assert len(pipe.pop_batch()) == 1
        assert pipe.pop_batch() == []
        counters = pipe.counters()
        assert counters.n_consumed == 7
        assert counters.n_batches == 3

    def test_pop_preserves_fifo_order(self):
        pipe = IngestPipeline(AdmissionPolicy(capacity=100), batch_size=100)
        records = sequence_records(range(10))
        for r in records:
            pipe.offer(r)
        assert [r for r, _ in pipe.pop_batch()] == records

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigError):
            IngestPipeline(batch_size=0)


class TestOnlineService:
    def test_offer_consume_drain_roundtrip(self):
        cfg = FarmerConfig(n_shards=2, max_strength=0.3)
        online = OnlineService(cfg, batch_size=16)
        records = sequence_records([1, 2, 3, 4, 1, 2, 3, 4, 1, 2])
        for r in records:
            assert online.offer(r) is Admission.ACCEPTED
        report = online.drain()  # consumer not started: drain does it all
        assert report.n_consumed == 10
        assert online.service.n_observed == 10
        assert online.pipeline.depth == 0

    def test_out_of_int64_offer_is_refused_without_data_dir(self):
        """With no WAL to refuse it, ``offer`` itself refuses a record
        the miner's int64 graph arrays cannot hold, so the next drain
        mines the good records instead of losing the batch."""
        online = OnlineService(FarmerConfig(n_shards=1))
        assert online.offer(make_record(1, ts=0)) is Admission.ACCEPTED
        with pytest.raises(TraceFormatError, match="fid"):
            online.offer(make_record(2**63, ts=1))
        assert online.offer(make_record(1, ts=2)) is Admission.ACCEPTED
        assert online.pipeline.depth == 2
        report = online.drain()
        assert report.n_consumed == 2
        assert online.service.n_observed == 2
        counters = online.pipeline.counters()
        assert (counters.n_offered, counters.n_accepted) == (3, 2)

    def test_stats_rollup_fields(self):
        cfg = FarmerConfig(n_shards=2, max_strength=0.3)
        online = OnlineService(cfg)
        for r in sequence_records([5, 6, 5, 6]):
            online.offer(r)
        online.drain()
        online.predict(5)
        stats = online.stats()
        assert stats.service.n_observed == 4
        assert stats.queue_depth == 0
        assert stats.pipeline.n_accepted == 4
        assert stats.endpoint_latency["predict"].n == 1
        assert stats.uptime_s >= 0.0

    def test_consumer_thread_drains_in_background(self):
        cfg = FarmerConfig(n_shards=2, max_strength=0.3)
        with OnlineService(cfg, batch_size=8) as online:
            for r in sequence_records(list(range(50))):
                online.offer(r)
            online.drain()
            assert online.service.n_observed == 50
        assert not online.running

    def test_queue_depth_series_is_sampled(self):
        cfg = FarmerConfig(n_shards=2, max_strength=0.3)
        online = OnlineService(cfg, batch_size=4, load_sample_every=1)
        for r in sequence_records(list(range(12))):
            online.offer(r)
        online.drain()
        assert len(online.telemetry.series("queue_depth")) >= 1
        assert len(online.telemetry.series("shard_load.0")) >= 1

    def test_rejects_bad_sample_cadence(self):
        with pytest.raises(ConfigError):
            OnlineService(FarmerConfig(), load_sample_every=0)
