"""Tests for trace serialisation (CSV and JSONL round-trips)."""

import pytest

from repro.errors import TraceFormatError
from repro.traces.io import (
    CSV_COLUMNS,
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

    @pytest.mark.parametrize(
        "field", ["ts", "fid", "uid", "pid", "host", "size", "dev"]
    )
    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    def test_out_of_int64_row_refused_naming_the_line(self, tmp_path, field, value):
        """The graph arrays and the WAL hold these fields as int64, so a
        row outside that range is refused on read, with the JSONL
        reader's message, instead of failing later in ``mine()``."""
        bad = record_to_dict(make_record(2, path="/a"))
        bad[field] = value
        path = tmp_path / "t.csv"
        path.write_text(
            dumps_csv([make_record(1, path="/a")])
            + ",".join(str(bad[c]) for c in CSV_COLUMNS)
            + "\n"
        )
        reader = read_csv(path)
        assert next(reader) == make_record(1, path="/a")
        with pytest.raises(TraceFormatError) as exc:
            next(reader)
        assert exc.value.line == 3
        assert f"{field}={value!r} is not an int64" in str(exc.value)
        with pytest.raises(TraceFormatError) as from_dict:
            record_from_dict(bad, 3)
        assert str(from_dict.value) == str(exc.value)

    def test_int64_extremes_roundtrip(self, tmp_path):
        records = [
            make_record(2**63 - 1, ts=-(2**63), size=2**63 - 1, dev=-(2**63)),
        ]
        path = tmp_path / "t.csv"
        write_csv(records, path)
        assert list(read_csv(path)) == records

    def test_empty_path_refused_naming_the_line(self, tmp_path, sample_records):
        """CSV spells ``path=None`` as an empty field, so it cannot keep
        ``path=""`` apart; both writers refuse it rather than let it
        read back as ``None``."""
        records = sample_records + [make_record(4, path="")]
        with pytest.raises(TraceFormatError, match="line 5: path=''"):
            write_csv(records, tmp_path / "t.csv")
        with pytest.raises(TraceFormatError, match="line 5: path=''"):
            dumps_csv(records)

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

    def test_empty_path_kept_apart_from_none(self, tmp_path):
        records = [make_record(1, path=""), make_record(2, path=None)]
        path = tmp_path / "t.jsonl"
        write_jsonl(records, path)
        back = list(read_jsonl(path))
        assert back == records
        assert back[0].path == "" and back[1].path is None

    @pytest.mark.parametrize("value", [5, ["/a"], {"p": 1}, True])
    def test_non_text_path_refused(self, value):
        data = {**record_to_dict(make_record(1)), "path": value}
        with pytest.raises(TraceFormatError, match="line 7: .*path"):
            record_from_dict(data, 7)

    def test_non_text_path_names_its_file_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl([make_record(1)], path)
        with open(path, "a") as fh:
            fh.write('{"ts":1,"fid":2,"uid":1,"pid":1,"host":1,"path":5}\n')
        with pytest.raises(TraceFormatError) as exc:
            list(read_jsonl(path))
        assert exc.value.line == 2


class TestLargeRoundtrip:
    def test_thousand_records(self, tmp_path):
        records = sequence_records(range(1000))
        path = tmp_path / "big.csv"
        write_csv(records, path)
        assert list(read_csv(path)) == records
