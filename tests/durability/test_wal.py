"""WAL unit coverage: CRC framing, the binary record layout and its
refusals, segment headers, rotation, pruning, torn-tail recovery at
every byte boundary of the last record.

Numpy-free by design (hand-built records only) so the no-numpy CI leg
covers the journal format too.
"""

import json
import shutil
import struct
import zlib
from dataclasses import replace

import pytest

from repro.durability.wal import WAL_FORMAT, WriteAheadLog
from repro.errors import (
    ConfigError,
    PersistenceError,
    TraceFormatError,
    WalCorruptError,
    WalFormatError,
)
from tests.conftest import make_record


def fill(log, n, start=0):
    for i in range(n):
        log.append(make_record(100 + start + i, ts=(start + i) * 1000), True)


def replayed(directory, from_seq=0):
    log = WriteAheadLog(directory)
    try:
        return list(log.replay(from_seq))
    finally:
        log.close()


class TestFraming:
    def test_round_trip_preserves_records_and_flags(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        records = [make_record(fid, ts=i * 1000) for i, fid in enumerate([7, 3, 7, 9])]
        flags = [True, False, True, False]
        for record, flag in zip(records, flags):
            log.append(record, flag)
        log.close()
        entries = replayed(tmp_path)
        assert [seq for seq, _, _ in entries] == [0, 1, 2, 3]
        assert [record for _, record, _ in entries] == records
        assert [flag for _, _, flag in entries] == flags

    def test_sequence_numbers_survive_reopen(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 5)
        log.close()
        log = WriteAheadLog(tmp_path)
        assert log.next_seq == 5
        assert log.append(make_record(1), True) == 5
        log.close()

    def test_replay_from_seq_skips_prefix(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 10)
        log.close()
        assert [seq for seq, _, _ in replayed(tmp_path, from_seq=7)] == [7, 8, 9]

    def test_invalid_fsync_policy_refused(self, tmp_path):
        with pytest.raises(ConfigError):
            WriteAheadLog(tmp_path, fsync="sometimes")
        with pytest.raises(ConfigError):
            WriteAheadLog(tmp_path, fsync_every=0)

    def test_fsync_policy_cadence(self, tmp_path):
        always = WriteAheadLog(tmp_path / "a", fsync="always")
        fill(always, 5)
        assert always.stats().n_fsyncs == 5
        always.close()
        never = WriteAheadLog(tmp_path / "n", fsync="never")
        fill(never, 5)
        assert never.stats().n_fsyncs == 0
        never.close()
        interval = WriteAheadLog(tmp_path / "i", fsync="interval", fsync_every=2)
        fill(interval, 5)
        assert interval.stats().n_fsyncs == 2
        interval.close()


class TestBinaryRecords:
    def test_empty_path_and_no_path_stay_distinct(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        records = [
            make_record(1, path=None),
            make_record(2, path=""),
            make_record(3, path="/data/caf\u00e9/\u6587\u4ef6.txt", op="\u00e9crire"),
            make_record(4, path="/x", op=""),
        ]
        for record in records:
            log.append(record, False)
        log.close()
        assert [record for _, record, _ in replayed(tmp_path)] == records

    def test_int64_extremes_round_trip(self, tmp_path):
        low, high = -(2**63), 2**63 - 1
        record = make_record(
            high, ts=low, uid=high, pid=low, host=high, size=low, dev=high
        )
        log = WriteAheadLog(tmp_path)
        log.append(record, True)
        log.close()
        assert replayed(tmp_path) == [(0, record, True)]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fid", 2**63),
            ("ts", -(2**63) - 1),
            ("uid", 2**70),
            ("dev", 1.5),
            ("path", "/a/\ud800"),
            ("op", "\udcff"),
            ("op", None),
        ],
    )
    def test_unencodable_record_refused_before_any_write(
        self, tmp_path, field, value
    ):
        log = WriteAheadLog(tmp_path)
        fill(log, 3)
        segment = next(tmp_path.glob("wal-*.log"))
        before = segment.read_bytes()
        with pytest.raises(TraceFormatError, match=field):
            log.append(replace(make_record(1), **{field: value}), True)
        assert segment.read_bytes() == before
        assert log.next_seq == 3 and log.stats().n_appends == 3
        assert log.append(make_record(5), True) == 3
        log.close()
        assert [seq for seq, _, _ in replayed(tmp_path)] == [0, 1, 2, 3]


class TestSegmentHeader:
    def test_every_segment_starts_with_the_header(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 2)
        log.rotate()
        log.close()
        for segment in tmp_path.glob("wal-*.log"):
            assert segment.read_bytes()[:8] == struct.pack(
                "<4sI", b"FWAL", WAL_FORMAT
            )

    def test_json_era_segment_is_refused(self, tmp_path):
        """A segment written by the JSON-frame WAL (no header) is
        refused by name, never misread."""
        payload = json.dumps(
            [1, {"ts": 0, "fid": 7, "uid": 1, "pid": 1, "host": 1,
                 "path": None, "op": "open", "size": 0, "dev": 0}],
            separators=(",", ":"),
        ).encode()
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        (tmp_path / "wal-000000000000.log").write_bytes(frame * 3)
        with pytest.raises(WalFormatError, match="wal-000000000000.log") as info:
            WriteAheadLog(tmp_path)
        assert "JSON" in str(info.value)
        assert isinstance(info.value, PersistenceError)

    def test_unknown_format_version_is_refused(self, tmp_path):
        (tmp_path / "wal-000000000000.log").write_bytes(
            struct.pack("<4sI", b"FWAL", WAL_FORMAT + 1)
        )
        with pytest.raises(WalFormatError, match=f"format {WAL_FORMAT + 1}"):
            WriteAheadLog(tmp_path)

    @pytest.mark.parametrize("cut", range(8))
    def test_torn_header_of_the_last_segment_is_rewritten(self, tmp_path, cut):
        log = WriteAheadLog(tmp_path)
        fill(log, 3)
        log.rotate()
        log.close()
        newest = max(tmp_path.glob("wal-*.log"))
        header = newest.read_bytes()
        newest.write_bytes(header[:cut])  # crashed while creating it
        recovered = WriteAheadLog(tmp_path)
        assert recovered.discarded_bytes == cut
        assert recovered.next_seq == 3
        assert recovered.append(make_record(9), True) == 3
        recovered.close()
        assert newest.read_bytes().startswith(header)
        assert [seq for seq, _, _ in replayed(tmp_path)] == [0, 1, 2, 3]

    def test_short_segment_before_later_ones_refuses_to_open(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 3)
        log.rotate()
        fill(log, 3, start=3)
        log.close()
        oldest = min(tmp_path.glob("wal-*.log"))
        oldest.write_bytes(oldest.read_bytes()[:5])
        with pytest.raises(WalCorruptError, match="later segments exist"):
            WriteAheadLog(tmp_path)


class TestRotationAndPrune:
    def test_rotate_seals_segments_and_replay_spans_them(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 4)
        assert log.rotate() == 4
        fill(log, 3, start=4)
        assert log.stats().n_segments == 2
        log.close()
        assert [seq for seq, _, _ in replayed(tmp_path)] == list(range(7))

    def test_rotate_on_empty_segment_is_idempotent(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 2)
        assert log.rotate() == 2
        assert log.rotate() == 2  # nothing appended in between
        assert log.stats().n_segments == 2
        log.close()

    def test_prune_deletes_only_covered_segments(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 4)
        log.rotate()
        fill(log, 4, start=4)
        log.rotate()
        fill(log, 2, start=8)
        assert log.stats().n_segments == 3
        assert log.prune(4) == 1  # only [0, 4) is covered
        assert log.prune(8) == 1
        assert log.prune(10**9) == 0  # the active segment is never pruned
        assert [seq for seq, _, _ in log.replay(0)] == list(range(8, 10))
        log.close()


class TestTornTail:
    def test_truncation_at_every_byte_of_the_last_record(self, tmp_path):
        """The satellite property: cut the log anywhere inside the last
        record — header bytes included — and recovery lands on the last
        complete record, reporting exactly the discarded byte count."""
        source = tmp_path / "source"
        log = WriteAheadLog(source)
        fill(log, 7)
        last_start = next(source.glob("wal-*.log")).stat().st_size
        fill(log, 1, start=7)  # the record every cut below tears
        log.close()
        segment = next(source.glob("wal-*.log"))
        data = segment.read_bytes()
        assert 0 < last_start < len(data)
        for cut in range(last_start, len(data)):
            torn = tmp_path / f"torn-{cut}"
            torn.mkdir()
            shutil.copy(segment, torn / segment.name)
            with open(torn / segment.name, "ab") as fh:
                fh.truncate(cut)
            recovered = WriteAheadLog(torn)
            assert recovered.next_seq == 7
            assert recovered.discarded_bytes == cut - last_start
            assert len(list(recovered.replay(0))) == 7
            # the log is usable again: the next append takes seq 7
            assert recovered.append(make_record(1), True) == 7
            recovered.close()

    def test_corrupt_tail_byte_truncates_like_a_torn_write(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 6)
        log.close()
        segment = next(tmp_path.glob("wal-*.log"))
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0xFF  # flip a payload byte of the last record
        segment.write_bytes(data)
        recovered = WriteAheadLog(tmp_path)
        assert recovered.next_seq == 5
        assert recovered.discarded_bytes > 0
        recovered.close()

    def test_mid_log_corruption_refuses_to_open(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 4)
        log.rotate()
        fill(log, 4, start=4)
        log.close()
        first = min(tmp_path.glob("wal-*.log"))
        data = bytearray(first.read_bytes())
        data[10] ^= 0xFF  # corrupt a non-final segment
        first.write_bytes(data)
        with pytest.raises(WalCorruptError, match="later segments exist"):
            WriteAheadLog(tmp_path)

    def test_missing_middle_segment_refuses_to_open(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        fill(log, 3)
        log.rotate()
        fill(log, 3, start=3)
        log.rotate()
        fill(log, 3, start=6)
        log.close()
        segments = sorted(tmp_path.glob("wal-*.log"))
        segments[1].unlink()
        with pytest.raises(WalCorruptError, match="missing or truncated"):
            WriteAheadLog(tmp_path)
