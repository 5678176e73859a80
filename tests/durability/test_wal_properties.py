"""Property tests for the WAL's binary frame format.

Generated streams mix ``path=None``, ``path=""`` and non-ASCII paths,
int64 extremes, both ``allow_echo`` values and random ``rotate()``
points. Three properties: replay returns exactly the appended stream;
cutting the last segment at any byte replays exactly the complete-frame
prefix and reports the cut bytes as discarded; a flipped byte in a
sealed segment refuses to open.

Numpy-free, derandomized and bounded, so the no-numpy CI leg runs it in
a few seconds.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.wal import WriteAheadLog
from repro.errors import WalCorruptError, WalFormatError
from repro.traces.record import TraceRecord

_HEADER_SIZE = 8
_LIMITS = [-(2**63), -1, 0, 1, 2**63 - 1]
_int64 = st.one_of(st.sampled_from(_LIMITS), st.integers(-(2**63), 2**63 - 1))
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
_path = st.one_of(
    st.none(), st.just(""), st.sampled_from(["/d/café/文.txt", "/\U0001f642"]), _text
)
_record = st.builds(
    TraceRecord,
    ts=_int64,
    fid=_int64,
    uid=_int64,
    pid=_int64,
    host=_int64,
    path=_path,
    op=st.one_of(st.sampled_from(["open", "read", ""]), _text),
    size=_int64,
    dev=_int64,
)
# (record, allow_echo, rotate before appending it)
_entries = st.lists(st.tuples(_record, st.booleans(), st.booleans()), max_size=16)

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def write_log(directory, entries, rotate_at=()):
    """Append ``entries`` (rotating where asked); returns the last
    segment's frame boundaries: the header end, then each frame end."""
    log = WriteAheadLog(directory)
    boundaries = [_HEADER_SIZE]
    written = 0
    for index, (record, allow_echo, rotate) in enumerate(entries):
        if rotate or index in rotate_at:
            log.rotate()
            boundaries = [_HEADER_SIZE]
        log.append(record, allow_echo)
        frame = log.stats().bytes_written - written
        written += frame
        boundaries.append(boundaries[-1] + frame)
    log.close()
    return boundaries


def segments(directory):
    return sorted(Path(directory).glob("wal-*.log"))


def replay_all(directory):
    log = WriteAheadLog(directory)
    try:
        return list(log.replay(0)), log.discarded_bytes
    finally:
        log.close()


def expected(entries):
    return [(seq, record, flag) for seq, (record, flag, _) in enumerate(entries)]


@_SETTINGS
@given(entries=_entries, data=st.data())
def test_replay_returns_the_appended_stream(entries, data):
    with tempfile.TemporaryDirectory() as tmp:
        write_log(tmp, entries)
        replayed, discarded = replay_all(tmp)
        assert replayed == expected(entries)
        assert discarded == 0
        from_seq = data.draw(st.integers(0, len(entries)))
        log = WriteAheadLog(tmp)
        assert list(log.replay(from_seq)) == expected(entries)[from_seq:]
        log.close()


@_SETTINGS
@given(entries=_entries, data=st.data())
def test_torn_last_segment_replays_the_complete_prefix(entries, data):
    with tempfile.TemporaryDirectory() as tmp:
        boundaries = write_log(tmp, entries)
        last = segments(tmp)[-1]
        size = last.stat().st_size
        assert size == boundaries[-1]
        cut = data.draw(st.integers(0, size), label="cut")
        with open(last, "ab") as fh:
            fh.truncate(cut)
        kept = max(b for b in [0, *boundaries] if b <= cut)
        complete = sum(1 for b in boundaries[1:] if b <= cut)
        n_before = len(entries) - (len(boundaries) - 1)
        replayed, discarded = replay_all(tmp)
        assert replayed == expected(entries)[: n_before + complete]
        assert discarded == cut - kept
        # the log is usable again and keeps numbering the stream
        log = WriteAheadLog(tmp)
        assert log.discarded_bytes == 0
        assert log.append(TraceRecord(0, 1, 2, 3, 4), True) == n_before + complete
        log.close()


@_SETTINGS
@given(
    head=_entries.filter(bool),
    tail=_entries.filter(bool),
    data=st.data(),
)
def test_flipped_byte_in_a_sealed_segment_refuses_to_open(head, tail, data):
    entries = head + tail
    with tempfile.TemporaryDirectory() as tmp:
        write_log(tmp, entries, rotate_at={len(head)})
        sealed = data.draw(st.sampled_from(segments(tmp)[:-1]), label="segment")
        raw = bytearray(sealed.read_bytes())
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        raw[offset] ^= data.draw(st.integers(1, 255), label="mask")
        sealed.write_bytes(raw)
        # a damaged frame is corruption; a damaged header is a segment
        # this version cannot read
        error = WalCorruptError if offset >= _HEADER_SIZE else WalFormatError
        with pytest.raises(error):
            WriteAheadLog(tmp)
