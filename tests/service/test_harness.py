"""The `service` CLI subcommand: a measured table, not a model."""

import pytest

from repro.cli import main

HEADERS = ("shards", "records", "echoes", "wall s", "vs 1 shard")


class TestServiceCli:
    def test_service_subcommand(self, capsys):
        assert (
            main(
                [
                    "service",
                    "--events",
                    "600",
                    "--shards",
                    "1,2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for header in HEADERS:
            assert header in out
        assert "observe+predict/s" in out
        assert "measured wall clock" in out
        lines = out.splitlines()
        rows = [line.split("|") for line in lines if line[:1].isdigit()]
        assert [row[0].strip() for row in rows] == ["1", "2"]
        assert all(row[1].strip() == "600" for row in rows)
        assert rows[0][2].strip() == "0"  # one miner echoes nothing
        assert rows[0][-1].strip() == "1.00x"
        lowered = out.lower()
        assert "critical path" not in lowered
        assert "speedup" not in lowered
        assert "baseline" not in lowered

    def test_service_subcommand_isolated_observe_only(self, capsys):
        assert (
            main(
                [
                    "service",
                    "--events",
                    "400",
                    "--shards",
                    "2",
                    "--isolate",
                    "--no-predict",
                    "--policy",
                    "range",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cross_shard_edges=False" in out
        assert "mode=observe" in out
        assert "observe/s" in out
        # the 1-shard reference row is always timed, so the ratio has
        # a denominator even when it is not asked for
        rows = [line.split("|") for line in out.splitlines() if line[:1].isdigit()]
        assert [row[0].strip() for row in rows] == ["1", "2"]
        assert rows[1][2].strip() == "0"  # strict isolation: no echoes

    @pytest.mark.parametrize(
        "flags", [["--parallel", "thread"], ["--workers", "2"]]
    )
    def test_removed_parallel_flags_are_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["service", "--events", "100", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_freeze_flag_is_rejected(self, capsys):
        """Vectors never freeze; there is no threshold to set."""
        with pytest.raises(SystemExit) as excinfo:
            main(["service", "--events", "100", "--freeze", "8"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["service", "--help"])
        assert "--freeze" not in capsys.readouterr().out

    def test_help_lists_no_parallel_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["service", "--help"])
        out = capsys.readouterr().out
        assert "--parallel" not in out
        assert "--workers" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["service", "--events", "100", "--echo-interval", "64"],
            ["service", "--events", "100", "--idle-drain", "4"],
            ["serve", "--echo-interval", "64"],
        ],
        ids=["service-echo-interval", "service-idle-drain", "serve-echo-interval"],
    )
    def test_removed_echo_schedule_flags_are_rejected(self, argv, capsys):
        """Echoes are delivered synchronously; there is no batched or
        idle drain schedule to select."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["service", "serve"])
    def test_help_lists_no_echo_schedule_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--echo-interval" not in out
        assert "--idle-drain" not in out
