"""Trace serialisation: CSV and JSON-lines readers/writers.

The synthetic generators produce records in memory, but a real deployment
mines multi-gigabyte trace files, so the library ships streaming parsers.
JSON lines round-trip every record exactly, ``path=None`` and ``path=""``
included. CSV spells ``path=None`` as an empty field, so it has no
spelling for ``path=""``: the CSV writers refuse such a record, and every
record they accept round-trips exactly. The readers are generators so
arbitrarily large traces can be mined without loading them.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import TraceFormatError
from repro.traces.record import TraceRecord

__all__ = [
    "CSV_COLUMNS",
    "write_csv",
    "read_csv",
    "write_jsonl",
    "read_jsonl",
    "record_to_dict",
    "record_from_dict",
    "int64_overflow",
]

CSV_COLUMNS = ("ts", "fid", "uid", "pid", "host", "path", "op", "size", "dev")
_INT_FIELDS = ("ts", "fid", "uid", "pid", "host", "size", "dev")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def record_to_dict(record: TraceRecord) -> dict:
    """Plain-dict view of a record (JSON-safe; path may be null)."""
    return {
        "ts": record.ts,
        "fid": record.fid,
        "uid": record.uid,
        "pid": record.pid,
        "host": record.host,
        "path": record.path,
        "op": record.op,
        "size": record.size,
        "dev": record.dev,
    }


def record_from_dict(data: dict, line: int | None = None) -> TraceRecord:
    """Parse a dict (e.g. one JSONL object) into a record.

    Raises:
        TraceFormatError: on missing keys, un-coercible values, an
            integer field outside int64 or a ``path`` that is neither
            text nor null.
    """
    path = data.get("path")
    if path is not None and not isinstance(path, str):
        raise TraceFormatError(
            f"bad trace record: path={path!r} is not text", line
        )
    try:
        record = TraceRecord(
            ts=int(data["ts"]),
            fid=int(data["fid"]),
            uid=int(data["uid"]),
            pid=int(data["pid"]),
            host=int(data["host"]),
            path=path,
            op=str(data.get("op", "open")),
            size=int(data.get("size", 0)),
            dev=int(data.get("dev", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad trace record: {exc!r}", line) from exc
    overflow = int64_overflow(record)
    if overflow is not None:
        raise TraceFormatError(f"bad trace record: {overflow}", line)
    return record


def int64_overflow(record: TraceRecord) -> str | None:
    """The first integer field of ``record`` that is not an int64, as
    an error fragment, or None when all of them are.

    The miner's graph arrays and the write-ahead log hold these fields
    as int64, so a record outside that range must be refused where it
    enters the service, not when it is mined.
    """
    for name in _INT_FIELDS:
        value = getattr(record, name)
        if not isinstance(value, int) or not _INT64_MIN <= value <= _INT64_MAX:
            return f"{name}={value!r} is not an int64"
    return None


def _csv_row(r: TraceRecord, line: int) -> tuple:
    """One record as a CSV row (``line`` is its line in the file)."""
    if r.path == "":
        raise TraceFormatError(
            "path='' has no CSV spelling apart from no path; write the "
            "trace as JSON lines instead",
            line,
        )
    return (
        r.ts, r.fid, r.uid, r.pid, r.host, r.path or "", r.op, r.size, r.dev
    )


def write_csv(records: Iterable[TraceRecord], path: str | Path) -> int:
    """Write records as CSV with a header row; returns the record count.

    Raises:
        TraceFormatError: on a record with ``path=""``, naming its line
            (the rows before it are already written).
    """
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(_csv_row(r, count + 2))
            count += 1
    return count


def read_csv(path: str | Path) -> Iterator[TraceRecord]:
    """Stream records from a CSV trace written by :func:`write_csv`.

    Raises:
        TraceFormatError: if the header or any row is malformed, or an
            integer field lies outside int64.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return
        if tuple(header) != CSV_COLUMNS:
            raise TraceFormatError(f"unexpected CSV header {header!r}", 1)
        lo, hi = _INT64_MIN, _INT64_MAX
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise TraceFormatError(
                    f"expected {len(CSV_COLUMNS)} fields, got {len(row)}", lineno
                )
            try:
                ts, fid, uid, pid, host = map(int, row[:5])
                size, dev = int(row[7]), int(row[8])
            except ValueError as exc:
                raise TraceFormatError(f"bad field: {exc}", lineno) from exc
            record = TraceRecord(
                ts, fid, uid, pid, host, row[5] or None, row[6], size, dev
            )
            # int64_overflow's test, inlined: calling it on every row
            # would cost a sixth of the decode
            ints = (ts, fid, uid, pid, host, size, dev)
            if min(ints) < lo or max(ints) > hi:
                raise TraceFormatError(
                    f"bad trace record: {int64_overflow(record)}", lineno
                )
            yield record


def write_jsonl(records: Iterable[TraceRecord], path: str | Path) -> int:
    """Write records as JSON lines; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(record_to_dict(r), separators=(",", ":")))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[TraceRecord]:
    """Stream records from a JSONL trace written by :func:`write_jsonl`."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"invalid JSON: {exc}", lineno) from exc
            yield record_from_dict(data, lineno)


def dumps_csv(records: Iterable[TraceRecord]) -> str:
    """In-memory CSV serialisation (testing / small traces); refuses
    ``path=""`` as :func:`write_csv` does."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for line, r in enumerate(records, start=2):
        writer.writerow(_csv_row(r, line))
    return buf.getvalue()
