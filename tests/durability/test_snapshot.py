"""Snapshot faithfulness: a restore is the captured service, bit for
bit — shared-store identity, lazy-rank schedule, standbys and all."""

import io
import json
import pickle
import zlib
from collections import deque

import pytest

from repro.core import vector_store as vector_store_module
from repro.core.cominer import F1Counter
from repro.core.config import FarmerConfig
from repro.durability.manager import DurabilityManager
from repro.durability.snapshot import (
    latest_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.errors import PersistenceError, SnapshotMismatchError
from repro.service.sharded import ShardedFarmer
from tests.conftest import cached_trace


def build_service(cfg, records):
    service = ShardedFarmer(cfg)
    service.ingest_stream((r, True) for r in records)
    return service


def assert_same_answers(left, right, records):
    for fid in sorted({r.fid for r in records}):
        assert left.predict(fid) == right.predict(fid)
        assert left.correlators(fid) == right.correlators(fid)
    assert left.snapshot() == right.snapshot()


@pytest.fixture(scope="module")
def records():
    return cached_trace("hp", 5_000, 13)


CFG = FarmerConfig(
    n_shards=4,
    shard_policy="consistent_hash",
    max_strength=0.3,
    replication=True,
    standby_sync_interval=512,
)


class TestRoundTrip:
    def test_restore_is_bit_identical_and_stays_identical(self, tmp_path, records):
        """The restored service matches the captured one not only on
        every query *now*, but after both keep mining — the capture is
        the full state (dirty marks, windows, cadence counters), not a
        frozen rank."""
        service = build_service(CFG, records[:3_500])
        write_snapshot(tmp_path, service, 3_500)
        restored = load_snapshot(latest_snapshot(tmp_path))
        assert_same_answers(service, restored, records[:3_500])
        service.ingest_stream((r, True) for r in records[3_500:])
        restored.ingest_stream((r, True) for r in records[3_500:])
        assert_same_answers(service, restored, records)

    def test_shared_stores_restore_by_identity(self, tmp_path, records):
        service = build_service(CFG, records[:2_000])
        write_snapshot(tmp_path, service, 2_000)
        restored = load_snapshot(latest_snapshot(tmp_path))
        for shard in restored.shards:
            assert shard.vocabulary is restored.vocabulary
            assert shard.miner.sim_cache is restored.sim_cache
            assert shard.constructor.vectors is restored.vector_store
        assert restored._replicator._service is restored
        for replica in restored._replicator.replicas:
            assert replica.farmer.vocabulary is restored.vocabulary

    def test_standbys_restore_armed(self, tmp_path, records):
        """Failover still works after a restore: the pickled standbys
        come back at their barrier and a post-restore promotion serves
        exactly what the captured service would."""
        service = build_service(CFG, records[:3_000])
        write_snapshot(tmp_path, service, 3_000)
        restored = load_snapshot(latest_snapshot(tmp_path))
        restored.sync_standbys()
        service.sync_standbys()
        restored.fail_shard(1)
        restored.promote_standby(1)
        assert_same_answers(service, restored, records[:3_000])

    def test_snapshot_at_existing_seq_is_unchanged(self, tmp_path, records):
        service = build_service(CFG, records[:1_000])
        first = write_snapshot(tmp_path, service, 1_000)
        again = write_snapshot(tmp_path, service, 1_000)
        assert not first.unchanged
        assert again.unchanged and again.bytes_total == 0


class TestDamage:
    def test_tmp_dir_from_mid_snapshot_crash_is_ignored(self, tmp_path, records):
        service = build_service(CFG, records[:1_500])
        write_snapshot(tmp_path, service, 1_500)
        partial = tmp_path / "snap-000000009999.tmp"
        partial.mkdir()
        (partial / "shard-0.pkl").write_bytes(b"half a pickle")
        chosen = latest_snapshot(tmp_path)
        assert chosen is not None and chosen.name == "snap-000000001500"

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path, records):
        service = build_service(CFG, records[:1_000])
        write_snapshot(tmp_path, service, 1_000)
        service.ingest_stream((r, True) for r in records[1_000:2_000])
        write_snapshot(tmp_path, service, 2_000)
        bad = tmp_path / "snap-000000002000" / "shard-2.pkl"
        data = bytearray(bad.read_bytes())
        data[50] ^= 0xFF
        bad.write_bytes(data)
        chosen = latest_snapshot(tmp_path)
        assert chosen is not None and chosen.name == "snap-000000001000"

    def test_load_of_damaged_snapshot_refuses(self, tmp_path, records):
        service = build_service(CFG, records[:800])
        report = write_snapshot(tmp_path, service, 800)
        (tmp_path / "snap-000000000800" / "service.pkl").unlink()
        with pytest.raises(PersistenceError, match="missing or corrupt"):
            load_snapshot(report.path)


class TestConfigMismatch:
    @pytest.mark.parametrize(
        "override, field",
        [
            (dict(n_shards=8), "n_shards"),
            (dict(shard_policy="hash"), "shard_policy"),
            (dict(replication=False), "replication"),
        ],
    )
    def test_recovery_refuses_and_names_the_field(
        self, tmp_path, records, override, field
    ):
        manager = DurabilityManager(tmp_path)
        service = build_service(CFG, records[:1_000])
        manager.checkpoint(service, 1_000)
        booting = DurabilityManager(tmp_path)
        with pytest.raises(SnapshotMismatchError, match=field):
            booting.recover(CFG.with_(**override))

    def test_snapshot_with_removed_fields_is_refused(self, tmp_path, records):
        """A data directory written while the config still had the
        similarity-cache fields, or the fields that selected the
        reference mining schedules and the batched/idle echo drains, is
        refused by name, not skipped: the manifest format is unchanged,
        so the snapshot stays readable and the config check is what
        stops the restore."""
        removed = {
            "sim_cache_capacity": 65536,
            "shared_sim_cache": True,
            "lazy_reevaluation": True,
            "rerank_kernel": "bulk",
            "incremental_rerank": True,
            "echo_flush_interval": 0,
            "echo_idle_drain": 0,
        }
        manager = DurabilityManager(tmp_path)
        manager.checkpoint(build_service(CFG, records[:1_000]), 1_000)
        manifest_path = latest_snapshot(manager.snapshot_dir) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"].update(removed)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotMismatchError) as excinfo:
            DurabilityManager(tmp_path).recover(CFG)
        for field in removed:
            assert field in str(excinfo.value)

    def test_snapshot_with_freeze_threshold_is_refused_before_load(
        self, tmp_path, records, monkeypatch
    ):
        """A data directory written while the config had
        ``vector_freeze_threshold`` (the re-rank then kept entry stamps
        and ranked epochs in every miner) is refused by the config
        check, naming the field, before any blob is unpickled — no
        miner is ever restored with the stale memo attributes."""
        manager = DurabilityManager(tmp_path)
        manager.checkpoint(build_service(CFG, records[:1_000]), 1_000)
        manager.close()
        manifest_path = latest_snapshot(manager.snapshot_dir) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["vector_freeze_threshold"] = 0
        manifest_path.write_text(json.dumps(manifest))
        loaded = []
        monkeypatch.setattr(
            "repro.durability.manager.load_snapshot", loaded.append
        )
        booting = DurabilityManager(tmp_path)
        with pytest.raises(SnapshotMismatchError) as excinfo:
            booting.recover(CFG)
        booting.close()
        assert "vector_freeze_threshold: snapshot=0 boot=None" in str(excinfo.value)
        assert loaded == []
        assert booting.recovery is None

    @pytest.mark.parametrize(
        "legacy, needle",
        [
            ("store_class", "repro.core.vector_store.ThreadSafeVectorStore"),
            ("counter_state", "does not fit its class"),
        ],
    )
    def test_snapshot_from_an_older_version_is_refused(
        self, tmp_path, records, monkeypatch, legacy, needle
    ):
        """Snapshots written while the shared stores were lock-wrapped
        pickle ``ThreadSafeVectorStore`` (a class that no longer exists)
        and an ``F1Counter`` state of ``(n,)`` (a shape the lock-free
        counter no longer reads). Recovery refuses either by file name;
        it neither crashes inside pickle nor falls back to the older
        snapshot or a WAL replay."""
        manager = DurabilityManager(tmp_path)
        service = ShardedFarmer(CFG)
        for seq in (500, 1_000):
            batch = records[seq - 500 : seq]
            for record in batch:
                manager.log_accepted(record, True)
            service.ingest_stream((r, True) for r in batch)
            manager.checkpoint(service, seq)
        manager.close()
        newest = latest_snapshot(manager.snapshot_dir)
        shared_path = newest / "shared.pkl"
        shared = pickle.loads(shared_path.read_bytes())
        if legacy == "store_class":
            old_class = type(
                "ThreadSafeVectorStore",
                (vector_store_module.VectorStore,),
                {"__module__": vector_store_module.__name__},
            )
            monkeypatch.setattr(
                vector_store_module,
                "ThreadSafeVectorStore",
                old_class,
                raising=False,
            )
            shared["vector_store"].__class__ = old_class
        else:
            monkeypatch.setattr(
                F1Counter, "__getstate__", lambda self: (self._n,), raising=False
            )
        data = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        shared_path.write_bytes(data)
        manifest_path = newest / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["shared.pkl"] = {
            "bytes": len(data),
            "crc32": zlib.crc32(data),
        }
        manifest_path.write_text(json.dumps(manifest))
        # the CRCs check out, so the snapshot is not skipped as damaged
        # and an older barrier is there to fall back to
        assert latest_snapshot(manager.snapshot_dir) == newest
        assert len(list(manager.snapshot_dir.glob("snap-*"))) == 2
        booting = DurabilityManager(tmp_path)
        with pytest.raises(SnapshotMismatchError) as excinfo:
            booting.recover(CFG)
        booting.close()
        message = str(excinfo.value)
        assert str(shared_path) in message
        assert needle in message
        assert booting.recovery is None
        assert booting.base_consumed == 0

    @pytest.mark.parametrize(
        "legacy, needle",
        [
            ("queue_fields", "not have (_echo_queues, _n_echo_flushes)"),
            ("missing_field", "lacks fields it needs (_n_echoes_shed)"),
        ],
    )
    def test_service_blob_with_another_field_set_is_refused(
        self, tmp_path, records, legacy, needle
    ):
        """A ``service.pkl`` written while the service kept boundary-echo
        queues carries ``_echo_queues`` and ``_n_echo_flushes``; one from
        a version without some current field lacks it. Recovery refuses
        either, naming the file and the fields, instead of restoring a
        service with stale attributes or gaps."""
        manager = DurabilityManager(tmp_path)
        service = ShardedFarmer(CFG)
        for record in records[:1_000]:
            manager.log_accepted(record, True)
        service.ingest_stream((r, True) for r in records[:1_000])
        manager.checkpoint(service, 1_000)
        manager.close()
        newest = latest_snapshot(manager.snapshot_dir)
        service_path = newest / "service.pkl"
        state = _repickle_tokens(service_path.read_bytes(), legacy)
        service_path.write_bytes(state)
        manifest_path = newest / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["service.pkl"] = {
            "bytes": len(state),
            "crc32": zlib.crc32(state),
        }
        manifest_path.write_text(json.dumps(manifest))
        assert latest_snapshot(manager.snapshot_dir) == newest
        booting = DurabilityManager(tmp_path)
        with pytest.raises(SnapshotMismatchError) as excinfo:
            booting.recover(CFG)
        booting.close()
        message = str(excinfo.value)
        assert str(service_path) in message
        assert needle in message
        assert booting.recovery is None


class _Token:
    """A persistent ID carried through a re-pickle untouched."""

    def __init__(self, pid):
        self.pid = pid


class _KeepTokens(pickle.Unpickler):
    def persistent_load(self, pid):
        return _Token(pid)


class _EmitTokens(pickle.Pickler):
    def persistent_id(self, obj):
        return obj.pid if isinstance(obj, _Token) else None


def _repickle_tokens(data: bytes, legacy: str) -> bytes:
    """Edit a service blob's field set, keeping its persistent IDs."""
    state = _KeepTokens(io.BytesIO(data)).load()
    if legacy == "queue_fields":
        state["_echo_queues"] = [deque() for _ in state["shards"]]
        state["_n_echo_flushes"] = 0
    else:
        del state["_n_echoes_shed"]
    out = io.BytesIO()
    _EmitTokens(out, protocol=pickle.HIGHEST_PROTOCOL).dump(state)
    return out.getvalue()
