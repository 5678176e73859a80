"""The ISSUE 8 acceptance property: a recovered service answers queries
bit-identically to a never-crashed same-config service at the last
durable barrier.

The harness simulates a SIGKILL by *abandoning* a durable
:class:`OnlineService` mid-flight — no drain, no final snapshot, records
still sitting in the ingest queue (the mid-``mine()`` crash: accepted
and journaled, never consumed) — then recovers from the data directory
alone. Crash points, checkpoint barriers and partial drains are
randomized per (router, replication) cell; torn WAL tails get their own
case. The reference is a fresh ``ShardedFarmer`` fed the durable prefix
through the ordinary ingest seam in one call.
"""

import random
from dataclasses import replace

import pytest

from repro.core.config import FarmerConfig
from repro.durability import DurabilityManager
from repro.errors import TraceFormatError
from repro.online import Admission, AdmissionPolicy, OnlineService
from repro.service.sharded import ShardedFarmer
from tests.conftest import cached_trace
from tests.online.test_drain_equivalence import assert_bit_identical

WIDE_OPEN = AdmissionPolicy(
    capacity=100_000, echo_watermark=1.0, defer_watermark=1.0
)


def run_and_crash(data_dir, cfg, records, crash_at, checkpoints, drains=()):
    """Feed ``records[:crash_at]`` into a durable service, checkpointing
    at the given accepted counts, then abandon it without any barrier —
    the SIGKILL equivalent. Returns nothing; only the disk survives."""
    manager = DurabilityManager(data_dir)
    online = OnlineService(
        cfg, policy=WIDE_OPEN, durability=manager, batch_size=128
    )
    pending_cp = sorted(checkpoints)
    pending_drain = sorted(drains)
    for count, record in enumerate(records[:crash_at], start=1):
        assert online.offer(record) is Admission.ACCEPTED
        if pending_cp and count == pending_cp[0]:
            report = online.checkpoint()
            assert report.seq == count
            pending_cp.pop(0)
        if pending_drain and count == pending_drain[0]:
            online.drain()
            pending_drain.pop(0)
    manager.wal.close()  # release the file handle; state is abandoned


def recover(data_dir, cfg):
    manager = DurabilityManager(data_dir)
    service, report = manager.recover(cfg)
    online = OnlineService(
        service=service, policy=WIDE_OPEN, durability=manager
    )
    return online, report


def reference_at(cfg, records, durable_seq):
    """A never-crashed service at the durable barrier: the accepted
    prefix through the same ingest seam."""
    ref = ShardedFarmer(cfg)
    ref.ingest_stream((r, True) for r in records[:durable_seq])
    return ref


@pytest.mark.parametrize("router", ["hash", "consistent_hash"])
@pytest.mark.parametrize("replication", [False, True])
def test_recovered_equals_never_crashed(tmp_path, router, replication):
    """Randomized crash points per cell, queued-but-unmined tails
    included; every recovery must land bit-identical on the full
    accepted (= journaled) stream."""
    records = cached_trace("hp", 6_000, 13)
    cfg = FarmerConfig(
        n_shards=4,
        shard_policy=router,
        max_strength=0.3,
        replication=replication,
        standby_sync_interval=512,
    )
    rng = random.Random(f"{router}-{replication}")
    for trial in range(2):
        crash_at = rng.randrange(1_500, len(records))
        barriers = sorted(
            rng.sample(range(300, crash_at), rng.randrange(0, 3))
        )
        drains = sorted(
            rng.sample(range(300, crash_at), rng.randrange(0, 2))
        )
        data_dir = tmp_path / f"trial-{trial}"
        run_and_crash(data_dir, cfg, records, crash_at, barriers, drains)
        online, report = recover(data_dir, cfg)
        assert report.durable_seq == crash_at
        assert online.consumed_seq == crash_at
        reference = reference_at(cfg, records, crash_at)
        assert_bit_identical(online, reference, records[:crash_at])


def test_post_restore_failover_still_works(tmp_path):
    """Recovery re-arms the standbys: a post-restore fail/promote cycle
    serves exactly what a never-crashed service at the same barrier
    would."""
    records = cached_trace("hp", 5_000, 13)
    cfg = FarmerConfig(
        n_shards=4,
        shard_policy="consistent_hash",
        max_strength=0.3,
        replication=True,
        standby_sync_interval=512,
    )
    run_and_crash(tmp_path, cfg, records, 4_200, [1_800])
    online, _ = recover(tmp_path, cfg)
    reference = reference_at(cfg, records, 4_200)
    online.service.sync_standbys()
    reference.sync_standbys()
    online.fail_shard(2)
    online.promote_standby(2)
    assert_bit_identical(online, reference, records[:4_200])


def test_torn_wal_tail_recovers_to_last_complete_record(tmp_path):
    """Cutting bytes off the journaled tail loses exactly the torn
    record: recovery lands on the last complete one, stays bit-identical
    there, and surfaces the discarded byte count through ``/stats``."""
    records = cached_trace("hp", 4_000, 13)
    cfg = FarmerConfig(n_shards=4, max_strength=0.3)
    run_and_crash(tmp_path, cfg, records, 3_000, [1_200])
    newest = max((tmp_path / "wal").glob("wal-*.log"))
    data = newest.read_bytes()
    with open(newest, "ab") as fh:
        fh.truncate(len(data) - 5)
    online, report = recover(tmp_path, cfg)
    assert report.durable_seq == 2_999
    assert report.wal_discarded_bytes > 0
    stats = online.stats()
    assert (
        stats.durability.recovery.wal_discarded_bytes
        == report.wal_discarded_bytes
    )
    reference = reference_at(cfg, records, 2_999)
    assert_bit_identical(online, reference, records[:2_999])


def test_crash_mid_snapshot_falls_back_to_sealed_barrier(tmp_path):
    """A .tmp directory left by a crash inside the snapshot writer is
    ignored; recovery restores the last sealed barrier and replays the
    full WAL tail over it."""
    records = cached_trace("hp", 4_000, 13)
    cfg = FarmerConfig(n_shards=4, max_strength=0.3)
    run_and_crash(tmp_path, cfg, records, 3_400, [1_000])
    partial = tmp_path / "snapshots" / "snap-000000003000.tmp"
    partial.mkdir()
    (partial / "shared.pkl").write_bytes(b"torn mid-write")
    online, report = recover(tmp_path, cfg)
    assert report.snapshot_seq == 1_000
    assert report.durable_seq == 3_400
    reference = reference_at(cfg, records, 3_400)
    assert_bit_identical(online, reference, records[:3_400])


def test_corrupt_newest_snapshot_falls_back_and_replays_more(tmp_path):
    """Damage to the newest snapshot falls back to the previous barrier
    — whose WAL segments are retained exactly for this — at the cost of
    a longer replay, not of correctness."""
    records = cached_trace("hp", 4_000, 13)
    cfg = FarmerConfig(n_shards=4, max_strength=0.3)
    run_and_crash(tmp_path, cfg, records, 3_600, [1_000, 2_500])
    bad = tmp_path / "snapshots" / "snap-000000002500" / "shard-1.pkl"
    data = bytearray(bad.read_bytes())
    data[100] ^= 0xFF
    bad.write_bytes(data)
    online, report = recover(tmp_path, cfg)
    assert report.snapshot_seq == 1_000
    assert report.wal_replayed == 2_600
    reference = reference_at(cfg, records, 3_600)
    assert_bit_identical(online, reference, records[:3_600])


def test_fresh_data_dir_recovers_to_empty(tmp_path):
    cfg = FarmerConfig(n_shards=2)
    manager = DurabilityManager(tmp_path)
    assert not manager.has_state()
    service, report = manager.recover(cfg)
    assert report.durable_seq == 0 and report.snapshot_path is None
    assert service.n_observed == 0


def test_empty_path_recovers_as_empty_path(tmp_path):
    """``path=""`` and ``path=None`` mine to different vectors, so the
    WAL must replay each as the value that was appended: a recovered
    service stays bit-identical to one that never crashed."""
    records = [
        replace(r, path="") if i % 3 == 0 else r
        for i, r in enumerate(cached_trace("hp", 2_000, 13))
    ]
    cfg = FarmerConfig(n_shards=2, max_strength=0.3)
    run_and_crash(tmp_path, cfg, records, 1_500, [600])
    online, report = recover(tmp_path, cfg)
    assert report.durable_seq == 1_500
    manager = online.durability
    assert [r for _, r, _ in manager.wal.replay(600)] == records[600:1_500]
    reference = reference_at(cfg, records, 1_500)
    assert_bit_identical(online, reference, records[:1_500])


@pytest.mark.parametrize(
    "poison",
    [
        {"fid": 2**63},
        {"ts": -(2**63) - 1},
        {"size": 2**64},
        {"path": "/tmp/\ud800"},
        {"op": "re\udfffad"},
    ],
    ids=["fid", "ts", "size", "path-surrogate", "op-surrogate"],
)
def test_poison_record_is_refused_and_recovery_still_works(tmp_path, poison):
    """A record the miner cannot hold is refused at ``offer`` before it
    is journaled, enqueued or counted as accepted; the WAL stays
    byte-identical and the data directory recovers."""
    records = cached_trace("hp", 1_000, 13)
    cfg = FarmerConfig(n_shards=2, max_strength=0.3)
    manager = DurabilityManager(tmp_path)
    online = OnlineService(
        cfg, policy=WIDE_OPEN, durability=manager, batch_size=128
    )
    for record in records[:400]:
        online.offer(record)
    segment = max((tmp_path / "wal").glob("wal-*.log"))
    before = segment.read_bytes()
    with pytest.raises(TraceFormatError, match=next(iter(poison))):
        online.offer(replace(records[400], **poison))
    assert segment.read_bytes() == before
    assert online.pipeline.counters().n_accepted == 400
    for record in records[400:700]:
        assert online.offer(record) is Admission.ACCEPTED
    online.drain()
    manager.wal.close()  # crash: abandon the live service
    online, report = recover(tmp_path, cfg)
    assert report.durable_seq == 700
    assert_bit_identical(online, reference_at(cfg, records, 700), records[:700])
