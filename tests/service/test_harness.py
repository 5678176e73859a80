"""The replay harness and the `service` CLI subcommand."""

from repro.cli import main
from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.service.harness import (
    ServiceComparison,
    compare_single_vs_sharded,
    replay_sharded,
    replay_single,
)
from repro.service.sharded import ShardedFarmer
from repro.traces.synthetic import generate_trace


class TestReplay:
    def test_replay_single_returns_elapsed(self, hp_trace):
        elapsed = replay_single(Farmer(), hp_trace[:300])
        assert elapsed > 0.0

    def test_replay_sharded_covers_all_records(self, hp_trace):
        service = ShardedFarmer(FarmerConfig(n_shards=4))
        timings = replay_sharded(service, hp_trace[:600])
        assert len(timings) == 4
        assert sum(t.n_records for t in timings) >= 600  # echoes add to it
        assert all(t.elapsed_s >= 0.0 for t in timings)
        # service-level accounting stays consistent after a replay
        assert service.n_observed == 600
        assert service.n_boundary_echoes == (
            sum(t.n_records for t in timings) - 600
        )
        # the replay actually mined: every shard that got records has state
        for timing, shard in zip(timings, service.shards):
            if timing.n_records:
                assert shard.stats().n_observed == timing.n_records

    def test_replay_matches_observe_schedule(self, hp_trace):
        """Per-shard replay yields the same mining state as the live
        ``observe`` schedule under strict isolation (the documented
        bit-for-bit case). Both sides run observe-only so every list is
        ranked against the same final state at comparison time (the
        per-request FPA predict freezes lists at request time — the
        lazy contract's usual freshness scope)."""
        records = hp_trace[:800]
        cfg = FarmerConfig(n_shards=3, cross_shard_edges=False, max_strength=0.3)
        replayed = ShardedFarmer(cfg)
        replay_sharded(replayed, records, predict=False)
        live = ShardedFarmer(cfg)
        for record in records:
            live.observe(record)
        for record in records:
            assert replayed.correlators(record.fid) == live.correlators(record.fid)

    def test_comparison_metrics(self):
        records = generate_trace("hp", 800, seed=1)
        cmp_ = compare_single_vs_sharded(records, FarmerConfig(n_shards=2))
        assert isinstance(cmp_, ServiceComparison)
        assert cmp_.n_records == 800
        assert cmp_.n_shards == 2
        assert cmp_.critical_path_s > 0
        assert cmp_.aggregate_throughput > 0
        assert cmp_.speedup > 0
        assert cmp_.memory_bytes > 0

    def test_comparison_reuses_baseline(self):
        records = generate_trace("hp", 400, seed=1)
        cmp_ = compare_single_vs_sharded(
            records, FarmerConfig(n_shards=2), single_elapsed_s=1.0
        )
        assert cmp_.single_elapsed_s == 1.0
        assert cmp_.single_throughput == 400.0


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
                    "--freeze",
                    "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shards" in out
        assert "baseline" in out
        assert "speedup" in out

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
