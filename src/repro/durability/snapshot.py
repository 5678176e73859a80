"""Crash-consistent snapshots of a :class:`ShardedFarmer`.

A snapshot is a *faithful* capture of the service's full mining state —
graph nodes, Correlator Lists, dirty marks, rank records, sliding
windows, standby replicas, every counter — not a rank at the barrier.
That distinction is the whole correctness story: the lazy
re-evaluation schedule defers ranking to query time, so a snapshot that
ranked lists "to clean them up" would freeze them at snapshot-time
vector state and diverge from a never-crashed service once more records
arrive (exactly the bug the standby-sync ``demote_rank`` dance avoids).
Restoring a faithful capture and replaying the WAL tail through the
ordinary ingest seam reproduces the never-crashed state bit for bit.

Shared stores are externalized
------------------------------

One service holds namespace-global stores (vocabulary, vector store,
Function-1 counter) shared by every shard *by identity*. Pickling each
shard naively would duplicate them per shard and sever the sharing on
restore. Instead the stores are written once to ``shared.pkl`` and
every other blob references them through pickle persistent IDs
(:class:`pickle.Pickler.persistent_id` /
:class:`pickle.Unpickler.persistent_load`); the restore path loads the
stores first and resolves the IDs back to the single live objects. The
service blob additionally externalizes the shard Farmers (restored from
their own files) and the service itself (the replicator holds a back
reference), so warm standbys come back armed at their pickled barrier.

Atomicity
---------

A snapshot is written to ``snap-<seq>.tmp/``, every file fsynced, the
manifest (with per-file CRCs) written last, and the directory renamed
to ``snap-<seq>`` — a crash mid-snapshot leaves a ``.tmp`` directory
that recovery ignores. :func:`latest_snapshot` picks the
highest-sequence directory whose manifest and CRCs check out, so a
damaged snapshot falls back to the previous one (whose WAL segments are
only pruned after the *next* barrier seals).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.config import FarmerConfig
from repro.errors import PersistenceError, SnapshotMismatchError
from repro.service.sharded import ShardedFarmer

__all__ = [
    "SnapshotReport",
    "latest_snapshot",
    "load_snapshot",
    "read_manifest",
    "snapshot_seq",
    "verify_config",
    "write_snapshot",
]

MANIFEST_FORMAT = 1
_SNAP_PREFIX = "snap-"
_TMP_SUFFIX = ".tmp"

# persistent-ID tokens for the objects shared across blobs by identity
_VOCAB = "vocabulary"
_VECTORS = "vector_store"
_SIM_CACHE = "sim_cache"
_EXTRACTOR = "extractor"
_SERVICE = "service"
# fields of the service whose values are serialized in their own blobs
_EXTERNAL_FIELDS = (_VOCAB, _VECTORS, _SIM_CACHE, _EXTRACTOR)


def _snap_name(seq: int) -> str:
    return f"{_SNAP_PREFIX}{seq:012d}"


def snapshot_seq(path: Path) -> int:
    """The WAL sequence number a snapshot directory captures."""
    return int(path.name[len(_SNAP_PREFIX) :])


class _ExternalizingPickler(pickle.Pickler):
    """Pickler that replaces known shared objects with persistent IDs."""

    def __init__(self, file, external: dict[int, str]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._external = external

    def persistent_id(self, obj):
        """Token for a registered shared object; None pickles inline."""
        return self._external.get(id(obj))


class _ResolvingUnpickler(pickle.Unpickler):
    """Unpickler that resolves persistent IDs to live shared objects."""

    def __init__(self, file, resolve: dict[str, object], path: Path) -> None:
        super().__init__(file)
        self._resolve = resolve
        self._path = path

    def find_class(self, module, name):
        """The class a blob names; one this version lacks is a mismatch."""
        try:
            return super().find_class(module, name)
        except (ImportError, AttributeError):
            raise SnapshotMismatchError(
                f"snapshot file {self._path} pickles class {module}.{name}, "
                f"which this version of the program does not have — the "
                f"snapshot was written by another version; restore it with "
                f"that version or discard the data directory"
            ) from None

    def persistent_load(self, pid):
        """The live shared object a snapshot token refers to."""
        try:
            return self._resolve[pid]
        except KeyError:
            raise PersistenceError(
                f"snapshot references unknown shared object {pid!r} "
                f"(snapshot format mismatch?)"
            ) from None


def _dump(path: Path, obj, external: dict[int, str]) -> dict:
    with open(path, "wb") as fh:
        _ExternalizingPickler(fh, external).dump(obj)
        fh.flush()
        os.fsync(fh.fileno())
    data = path.read_bytes()
    return {"bytes": len(data), "crc32": zlib.crc32(data)}


def _load(path: Path, resolve: dict[str, object]):
    with open(path, "rb") as fh:
        try:
            return _ResolvingUnpickler(fh, resolve, path).load()
        except (
            AttributeError,
            KeyError,
            TypeError,
            pickle.UnpicklingError,
        ) as exc:
            # the bytes passed their CRC check, so a failure to rebuild
            # an object means its class changed shape since the write
            raise SnapshotMismatchError(
                f"snapshot file {path} holds an object whose pickled state "
                f"does not fit its class in this version ({exc!r}); restore "
                f"it with the version that wrote it or discard the data "
                f"directory"
            ) from exc


def _check_service_fields(path: Path, state: dict) -> None:
    """Refuse a service blob whose fields are not the ones this version's
    :class:`ShardedFarmer` has (``state`` would otherwise be applied
    as-is, stale fields and gaps included)."""
    reference = ShardedFarmer(state.get("config"))
    expected = set(vars(reference)) - set(_EXTERNAL_FIELDS)
    extra = sorted(set(state) - expected)
    missing = sorted(expected - set(state))
    if extra or missing:
        raise SnapshotMismatchError(
            f"snapshot file {path} holds service fields this version does "
            f"not have ({', '.join(extra) or 'none'}) and lacks fields it "
            f"needs ({', '.join(missing) or 'none'}) — the snapshot was "
            f"written by another version; restore it with that version or "
            f"discard the data directory"
        )


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def config_fingerprint(config: FarmerConfig) -> dict:
    """JSON-normalized view of a config (tuples become lists) — what the
    manifest stores and recovery compares against the booting config."""
    return json.loads(json.dumps(asdict(config)))


@dataclass(frozen=True, slots=True)
class SnapshotReport:
    """What one snapshot barrier wrote.

    Attributes:
        seq: the accepted-stream sequence number the snapshot captures
            (every record with a lower sequence is inside it).
        path: the sealed snapshot directory.
        n_shards: shard blobs written.
        bytes_total: total bytes across all snapshot files.
        elapsed_s: wall-clock write cost (the ingest stall window).
        unchanged: True when a snapshot at ``seq`` already existed and
            nothing was written (no records accepted since the last
            barrier).
    """

    seq: int
    path: str
    n_shards: int
    bytes_total: int
    elapsed_s: float
    unchanged: bool = False


def write_snapshot(
    directory: str | Path, service: ShardedFarmer, seq: int
) -> SnapshotReport:
    """Capture ``service``'s full state as of WAL sequence ``seq``.

    The caller must hold the service quiescent (the online layer runs
    this under its ingest-serial and service locks, after a drain).
    """
    start = time.perf_counter()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / _snap_name(seq)
    if final.exists():
        return SnapshotReport(
            seq=seq,
            path=str(final),
            n_shards=len(service.shards),
            bytes_total=0,
            elapsed_s=time.perf_counter() - start,
            unchanged=True,
        )
    tmp = directory / (_snap_name(seq) + _TMP_SUFFIX)
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)

    files: dict[str, dict] = {}
    shared = {
        _VOCAB: service.vocabulary,
        _VECTORS: service.vector_store,
        _SIM_CACHE: service.sim_cache,
        _EXTRACTOR: service.extractor,
    }
    files["shared.pkl"] = _dump(tmp / "shared.pkl", shared, external={})

    external = {
        id(obj): token
        for token, obj in shared.items()
        if obj is not None
    }
    for index, shard in enumerate(service.shards):
        files[f"shard-{index}.pkl"] = _dump(
            tmp / f"shard-{index}.pkl", shard, external
        )

    service_external = dict(external)
    service_external[id(service)] = _SERVICE
    for index, shard in enumerate(service.shards):
        service_external[id(shard)] = f"shard:{index}"
    state = {
        key: value
        for key, value in vars(service).items()
        if key not in _EXTERNAL_FIELDS
    }
    files["service.pkl"] = _dump(
        tmp / "service.pkl", state, service_external
    )

    manifest = {
        "format": MANIFEST_FORMAT,
        "seq": seq,
        "n_shards": len(service.shards),
        "config": config_fingerprint(service.config),
        "files": files,
        "created_at": time.time(),
    }
    manifest_path = tmp / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    with open(manifest_path, "rb") as fh:
        os.fsync(fh.fileno())
    _fsync_dir(tmp)
    tmp.rename(final)
    _fsync_dir(directory)
    return SnapshotReport(
        seq=seq,
        path=str(final),
        n_shards=len(service.shards),
        bytes_total=sum(entry["bytes"] for entry in files.values()),
        elapsed_s=time.perf_counter() - start,
    )


def read_manifest(path: Path) -> dict | None:
    """Parse and CRC-verify a snapshot directory's manifest.

    Returns None when the directory is not a usable snapshot (missing
    or unparsable manifest, missing files, CRC mismatch) — the caller
    falls back to an older snapshot.
    """
    manifest_path = path / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if manifest.get("format") != MANIFEST_FORMAT:
        return None
    for name, entry in manifest.get("files", {}).items():
        try:
            data = (path / name).read_bytes()
        except OSError:
            return None
        if len(data) != entry["bytes"] or zlib.crc32(data) != entry["crc32"]:
            return None
    return manifest


def latest_snapshot(directory: str | Path) -> Path | None:
    """The highest-sequence *valid* snapshot directory, or None.

    ``.tmp`` directories (a crash mid-snapshot) and snapshots whose
    manifest or CRCs fail are skipped — damage falls back to the
    previous barrier rather than refusing recovery outright.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(
        (
            path
            for path in directory.iterdir()
            if path.is_dir()
            and path.name.startswith(_SNAP_PREFIX)
            and not path.name.endswith(_TMP_SUFFIX)
        ),
        key=snapshot_seq,
        reverse=True,
    )
    for path in candidates:
        if read_manifest(path) is not None:
            return path
    return None


def verify_config(manifest: dict, config: FarmerConfig) -> None:
    """Refuse a restore into a differently-configured service.

    Raises:
        SnapshotMismatchError: naming every differing field, so the
            operator can boot with the matching flags or discard the
            data directory.
    """
    stored = manifest.get("config", {})
    booting = config_fingerprint(config)
    differing = [
        f"{key}: snapshot={stored.get(key)!r} boot={booting.get(key)!r}"
        for key in sorted(set(stored) | set(booting))
        if stored.get(key) != booting.get(key)
    ]
    if differing:
        raise SnapshotMismatchError(
            "snapshot manifest disagrees with the booting configuration "
            "— refusing to restore state into a different topology. "
            "Differing fields: " + "; ".join(differing)
        )


def load_snapshot(path: str | Path) -> ShardedFarmer:
    """Reconstruct the :class:`ShardedFarmer` a snapshot captured.

    The shared stores come back first; every shard blob and the service
    blob resolve their persistent IDs against them, so the restored
    service shares its stores across shards by identity exactly as the
    captured one did (standby replicas included).

    Raises:
        SnapshotMismatchError: when a blob names a class this version
            does not have, one whose pickled state no longer fits, or
            when the service blob's field set differs from this
            version's (a snapshot written by another version of the
            program).
    """
    path = Path(path)
    manifest = read_manifest(path)
    if manifest is None:
        raise PersistenceError(
            f"snapshot {path} is missing or corrupt (manifest/CRC check "
            f"failed)"
        )
    shared = _load(path / "shared.pkl", resolve={})
    service = ShardedFarmer.__new__(ShardedFarmer)
    resolve: dict[str, object] = dict(shared)
    resolve[_SERVICE] = service
    for index in range(manifest["n_shards"]):
        resolve[f"shard:{index}"] = _load(
            path / f"shard-{index}.pkl", resolve
        )
    # the service blob's ``shards`` tuple holds persistent IDs, so the
    # update below re-links the very objects restored above
    state = _load(path / "service.pkl", resolve)
    _check_service_fields(path / "service.pkl", state)
    service.__dict__.update(state)
    for token in _EXTERNAL_FIELDS:
        setattr(service, token, shared[token])
    return service
