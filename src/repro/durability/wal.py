"""Append-only write-ahead log of accepted ingest requests.

The WAL sits *behind* admission control: :meth:`IngestPipeline.offer
<repro.online.pipeline.IngestPipeline.offer>` journals a record the
moment it is accepted — before it is enqueued for the consumer — so at
every instant the mined state of the service is a prefix of the log.
That single ordering rule is what makes a SIGKILL recoverable: replaying
the log tail from the last snapshot barrier through
:meth:`ShardedFarmer.ingest_stream
<repro.service.sharded.ShardedFarmer.ingest_stream>` re-mines exactly
the accepted stream, in the accepted order, with the accepted
``allow_echo`` flags.

On-disk format
--------------

A log is a directory of **segments** named ``wal-<seq>.log`` where
``<seq>`` is the sequence number of the segment's first record. A
segment opens with an 8-byte header, the magic ``FWAL`` and the format
version as a little-endian u32 (``2``), written when the segment is
created. Each record is then one CRC-framed entry::

    [u32 payload length][u32 crc32(payload)][payload bytes]

The payload is one ``struct`` pack of fixed fields followed by two
strings::

    [u8 flags][i64 ts, fid, uid, pid, host, size, dev][u32 path length]
    [UTF-8 path bytes][UTF-8 op bytes (the rest of the payload)]

Flag bit 0 is ``allow_echo``; bit 1 says a path is present, so
``path=None`` and ``path=""`` replay as the values that were appended.
:meth:`WriteAheadLog.append` refuses a record whose integer fields do
not fit int64, or whose path or op is not encodable as UTF-8, with
:class:`~repro.errors.TraceFormatError` before writing any byte: a
record the miner cannot hold never reaches the log, where every later
recovery would replay it.

Length-prefixed framing means a torn write — the process died
mid-``append`` — is detectable as a short or CRC-failing frame at the
physical end of the last segment; :class:`WriteAheadLog` truncates it
at open and reports the discarded byte count. A last segment shorter
than its header is a crash during segment creation; it holds no
records, and its header is rewritten. A bad frame anywhere *else*
(valid data follows it) is real corruption and raises
:class:`~repro.errors.WalCorruptError` — replay must never silently
skip accepted records. A segment without the header was written by the
JSON-frame WAL (format 1) of an earlier version and is refused with
:class:`~repro.errors.WalFormatError`.

Fsync policy
------------

``fsync="always"`` fsyncs every append (no accepted record is ever
lost, at a per-record fsync cost); ``"interval"`` fsyncs every
``fsync_every`` appends (bounded loss window, near-batch throughput);
``"never"`` leaves flushing to the OS (contents survive a process kill
— the buffers are flushed to the page cache on every append — but not a
host power loss). ``docs/durability.md`` quantifies the trade.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import (
    ConfigError,
    TraceFormatError,
    WalCorruptError,
    WalFormatError,
)
from repro.traces.io import int64_overflow
from repro.traces.record import TraceRecord

__all__ = ["FSYNC_POLICIES", "WAL_FORMAT", "WalStats", "WriteAheadLog"]

FSYNC_POLICIES = ("always", "interval", "never")

#: on-disk format version in every segment header (1 was the JSON-frame
#: WAL, whose segments had no header)
WAL_FORMAT = 2

_HEADER = struct.Struct("<4sI")  # magic, format version
_MAGIC = b"FWAL"
_HEADER_BYTES = _HEADER.pack(_MAGIC, WAL_FORMAT)
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
# payload: flags, ts, fid, uid, pid, host, size, dev, path byte length;
# the UTF-8 path bytes and then the UTF-8 op bytes follow
_FIELDS = struct.Struct("<B7qI")
_ECHO = 1
_HAS_PATH = 2
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def _segment_name(seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{seq:012d}{_SEGMENT_SUFFIX}"


def _segment_base(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])


def _encode(record: TraceRecord, allow_echo: bool) -> bytes:
    """One CRC-framed entry for ``record``.

    Raises:
        TraceFormatError: if an integer field does not fit int64 or the
            path or op is not encodable as UTF-8.
    """
    flags = _ECHO if allow_echo else 0
    try:
        path = record.path
        if path is None:
            path_bytes = b""
        else:
            path_bytes = path.encode()
            flags |= _HAS_PATH
        payload = (
            _FIELDS.pack(
                flags,
                record.ts,
                record.fid,
                record.uid,
                record.pid,
                record.host,
                record.size,
                record.dev,
                len(path_bytes),
            )
            + path_bytes
            + record.op.encode()
        )
    except (struct.error, UnicodeEncodeError, AttributeError) as exc:
        reason = int64_overflow(record) or "its path or op is not a UTF-8 string"
        raise TraceFormatError(f"the WAL refuses {record!r}: {reason}") from exc
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _decode(payload: bytes) -> tuple[TraceRecord, bool]:
    """Inverse of :func:`_encode` on a CRC-checked payload."""
    flags, ts, fid, uid, pid, host, size, dev, n_path = _FIELDS.unpack_from(
        payload
    )
    start = _FIELDS.size
    end = start + n_path
    path = payload[start:end].decode() if flags & _HAS_PATH else None
    record = TraceRecord(
        ts, fid, uid, pid, host, path, payload[end:].decode(), size, dev
    )
    return record, bool(flags & _ECHO)


def _frames(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Yield ``(end offset, payload)`` for each complete, CRC-valid
    frame after the header; stops at the first short or CRC-failing
    frame (the caller compares the last end offset with ``len(data)``
    to tell a clean end from a torn or corrupt tail)."""
    offset = _HEADER.size
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if end > len(data):
            return  # short frame: the payload was cut off
        payload = data[offset + _FRAME.size : end]
        if zlib.crc32(payload) != crc:
            return  # torn payload bytes
        yield end, payload
        offset = end


def _check_header(path: Path, data: bytes) -> None:
    """Refuse a segment this version cannot read (``data`` holds at
    least a header's worth of bytes)."""
    magic, version = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise WalFormatError(
            f"WAL segment {path.name} has no format header: it was "
            f"written by the JSON-frame WAL (format 1) of an earlier "
            f"version, and this version reads only format {WAL_FORMAT}; "
            f"recover it with the version that wrote it, or start from "
            f"an empty data directory"
        )
    if version != WAL_FORMAT:
        raise WalFormatError(
            f"WAL segment {path.name} was written in WAL format "
            f"{version}; this version reads only format {WAL_FORMAT}"
        )


@dataclass(frozen=True, slots=True)
class WalStats:
    """Operational accounting of one :class:`WriteAheadLog`.

    Attributes:
        next_seq: sequence number the next accepted record will get
            (equals the count of records ever logged, across rotations).
        n_segments: segment files currently on disk.
        n_appends: records appended by *this* process (excludes records
            recovered from disk at open).
        bytes_written: frame bytes appended by this process.
        n_fsyncs: fsync calls issued by this process.
        discarded_bytes: torn-tail bytes truncated when the log was
            opened (0 after a clean shutdown).
        fsync: the configured fsync policy.
    """

    next_seq: int
    n_segments: int
    n_appends: int
    bytes_written: int
    n_fsyncs: int
    discarded_bytes: int
    fsync: str


class WriteAheadLog:
    """CRC-framed segmented log of ``(record, allow_echo)`` entries.

    Opening a directory scans every segment in order, truncates a torn
    tail on the *last* segment (counting the discarded bytes), and
    refuses mid-log corruption with :class:`~repro.errors.
    WalCorruptError`. Appends are thread-safe; :meth:`rotate` (called at
    snapshot barriers) seals the active segment so :meth:`prune` can
    delete segments wholly covered by a snapshot.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "interval",
        fsync_every: int = 64,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConfigError(
                f"WriteAheadLog fsync policy must be one of "
                f"{FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_every <= 0:
            raise ConfigError("WriteAheadLog needs fsync_every > 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_every = fsync_every
        self._lock = threading.Lock()
        self._n_appends = 0
        self._bytes_written = 0
        self._n_fsyncs = 0
        self._since_fsync = 0
        self.discarded_bytes = 0
        self._segments, self._next_seq = self._recover_segments()
        self._active = open(  # noqa: SIM115 - held for the log's lifetime
            self._segment_path(self._segments[-1])
            if self._segments
            else self._start_segment(0),
            "ab",
        )

    # -- open-time recovery --------------------------------------------

    def _segment_path(self, base: int) -> Path:
        return self.directory / _segment_name(base)

    def _start_segment(self, base: int) -> Path:
        path = self._segment_path(base)
        path.write_bytes(_HEADER_BYTES)
        self._segments.append(base)
        return path

    def _recover_segments(self) -> tuple[list[int], int]:
        """Check every segment in order and truncate a torn tail of the
        last one; returns the segment bases and the next sequence
        number."""
        bases = sorted(
            _segment_base(path)
            for path in self.directory.glob(
                f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"
            )
        )
        next_seq = 0
        for position, base in enumerate(bases):
            path = self._segment_path(base)
            data = path.read_bytes()
            is_last = position == len(bases) - 1
            if len(data) < _HEADER.size:
                if not is_last:
                    raise WalCorruptError(
                        f"WAL segment {path.name} is shorter than its "
                        f"header but later segments exist; refusing to "
                        f"open"
                    )
                # a crash while the segment was being created: it holds
                # no records, so rewrite its header
                path.write_bytes(_HEADER_BYTES)
                self.discarded_bytes = len(data)
                next_seq = base
                break
            _check_header(path, data)
            n_records = 0
            valid = _HEADER.size
            for valid, _payload in _frames(data):
                n_records += 1
            if valid < len(data):
                if not is_last:
                    raise WalCorruptError(
                        f"WAL segment {path.name} is corrupt at byte "
                        f"{valid} but later segments exist — records "
                        f"would be lost mid-log; refusing to open"
                    )
                # torn tail of the final segment: the append in flight
                # when the process died — truncate to the last complete
                # record and account for what was cut
                with open(path, "ab") as fh:
                    fh.truncate(valid)
                self.discarded_bytes = len(data) - valid
            next_seq = base + n_records
            if not is_last and bases[position + 1] != next_seq:
                raise WalCorruptError(
                    f"WAL segment {path.name} holds {n_records} records "
                    f"but the next segment starts at seq "
                    f"{bases[position + 1]} — a segment is missing or "
                    f"truncated; refusing to open"
                )
        return bases, next_seq

    # -- producer side -------------------------------------------------

    def append(self, record: TraceRecord, allow_echo: bool) -> int:
        """Durably journal one accepted record; returns its sequence
        number (0-based position in the accepted stream).

        Raises:
            TraceFormatError: if the record does not fit the binary
                frame (see the module docstring); nothing is written.
        """
        frame = _encode(record, allow_echo)
        with self._lock:
            seq = self._next_seq
            self._active.write(frame)
            self._active.flush()
            self._n_appends += 1
            self._bytes_written += len(frame)
            self._since_fsync += 1
            if self.fsync == "always" or (
                self.fsync == "interval"
                and self._since_fsync >= self.fsync_every
            ):
                os.fsync(self._active.fileno())
                self._n_fsyncs += 1
                self._since_fsync = 0
            self._next_seq = seq + 1
        return seq

    def sync(self) -> None:
        """Force an fsync of the active segment (barrier seam)."""
        with self._lock:
            self._active.flush()
            os.fsync(self._active.fileno())
            self._n_fsyncs += 1
            self._since_fsync = 0

    def rotate(self) -> int:
        """Seal the active segment and start a fresh one at the current
        sequence number (snapshot barriers call this so :meth:`prune`
        can later delete everything the snapshot covers). Returns the
        new segment's base sequence number."""
        with self._lock:
            self._active.flush()
            os.fsync(self._active.fileno())
            self._n_fsyncs += 1
            self._since_fsync = 0
            self._active.close()
            base = self._next_seq
            if self._segments and self._segments[-1] == base:
                # the active segment is still empty; keep it
                self._active = open(self._segment_path(base), "ab")
                return base
            self._active = open(self._start_segment(base), "ab")
            return base

    def prune(self, upto_seq: int) -> int:
        """Delete sealed segments whose records all precede ``upto_seq``
        (i.e. are covered by a snapshot). Returns segments deleted."""
        removed = 0
        with self._lock:
            while len(self._segments) > 1:
                base, next_base = self._segments[0], self._segments[1]
                if next_base > upto_seq:
                    break
                self._segment_path(base).unlink()
                self._segments.pop(0)
                removed += 1
        return removed

    def close(self) -> None:
        """Flush, fsync and close the active segment."""
        with self._lock:
            if not self._active.closed:
                self._active.flush()
                os.fsync(self._active.fileno())
                self._active.close()

    # -- consumer side -------------------------------------------------

    def replay(
        self, from_seq: int = 0
    ) -> Iterator[tuple[int, TraceRecord, bool]]:
        """Yield ``(seq, record, allow_echo)`` for every logged record
        with ``seq >= from_seq``, in append order."""
        with self._lock:
            self._active.flush()
            segments = list(self._segments)
        for base in segments:
            seq = base
            for _end, payload in _frames(self._segment_path(base).read_bytes()):
                if seq >= from_seq:
                    record, allow_echo = _decode(payload)
                    yield seq, record, allow_echo
                seq += 1

    @property
    def next_seq(self) -> int:
        """Sequence number the next append will get."""
        with self._lock:
            return self._next_seq

    def stats(self) -> WalStats:
        """Operational counters (see :class:`WalStats`)."""
        with self._lock:
            return WalStats(
                next_seq=self._next_seq,
                n_segments=len(self._segments),
                n_appends=self._n_appends,
                bytes_written=self._bytes_written,
                n_fsyncs=self._n_fsyncs,
                discarded_bytes=self.discarded_bytes,
                fsync=self.fsync,
            )
