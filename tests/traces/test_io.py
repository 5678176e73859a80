"""Tests for trace serialisation (CSV and JSONL round-trips)."""

import pytest

from repro.errors import TraceFormatError
from repro.traces.io import (
    dumps_csv,
    read_csv,
    read_jsonl,
    record_from_dict,
    record_to_dict,
    write_csv,
    write_jsonl,
)
from tests.conftest import make_record, sequence_records


@pytest.fixture
def sample_records():
    return [
        make_record(1, ts=10, uid=2, pid=3, host=4, path="/a/b", op="open", size=7, dev=1),
        make_record(2, ts=20, path=None, op="stat"),
        make_record(3, ts=30, path="/x/y z/with,comma"),
    ]


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path, sample_records):
        path = tmp_path / "t.csv"
        assert write_csv(sample_records, path) == 3
        back = list(read_csv(path))
        assert back == sample_records

    def test_path_none_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv([make_record(1, path=None)], path)
        assert next(iter(read_csv(path))).path is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        assert list(read_csv(path)) == []

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("nope,nope\n")
        with pytest.raises(TraceFormatError):
            list(read_csv(path))

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv([make_record(1)], path)
        with open(path, "a") as fh:
            fh.write("1,2,3\n")
        with pytest.raises(TraceFormatError) as exc:
            list(read_csv(path))
        assert exc.value.line == 3

    def test_bad_int(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,fid,uid,pid,host,path,op,size,dev\nx,1,1,1,1,,open,0,0\n")
        with pytest.raises(TraceFormatError):
            list(read_csv(path))

    def test_dumps_matches_write(self, tmp_path, sample_records):
        path = tmp_path / "t.csv"
        write_csv(sample_records, path)
        with open(path, newline="", encoding="utf-8") as fh:
            assert fh.read() == dumps_csv(sample_records)


class TestJsonlRoundtrip:
    def test_roundtrip(self, tmp_path, sample_records):
        path = tmp_path / "t.jsonl"
        assert write_jsonl(sample_records, path) == 3
        assert list(read_jsonl(path)) == sample_records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl([make_record(1)], path)
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert len(list(read_jsonl(path))) == 1

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(TraceFormatError):
            list(read_jsonl(path))

    def test_missing_key(self):
        with pytest.raises(TraceFormatError):
            record_from_dict({"fid": 1})

    @pytest.mark.parametrize(
        "field, value", [("fid", 2**63), ("ts", -(2**63) - 1), ("size", 2**64)]
    )
    def test_out_of_int64_refused(self, field, value):
        data = record_to_dict(make_record(1))
        data[field] = value
        with pytest.raises(TraceFormatError, match=f"line 3: .*{field}"):
            record_from_dict(data, 3)

    def test_int64_extremes_accepted(self):
        r = make_record(2**63 - 1, ts=-(2**63))
        assert record_from_dict(record_to_dict(r)) == r

    def test_dict_roundtrip(self):
        r = make_record(5, ts=1, path="/p")
        assert record_from_dict(record_to_dict(r)) == r


class TestLargeRoundtrip:
    def test_thousand_records(self, tmp_path):
        records = sequence_records(range(1000))
        path = tmp_path / "big.csv"
        write_csv(records, path)
        assert list(read_csv(path)) == records
