"""Fault-injection suite: shard replication, failover, degraded mode.

The load-bearing property (ISSUE 5 acceptance): for every shard index,
killing the shard at a randomized point in a 20k-record trace and
promoting its warm standby yields **bit-identical query results to a
never-failed service at the last sync barrier** — for both the hash and
consistent_hash routers. "Never-failed service" means the same
configuration (replication enabled, same sync cadence): sync barriers
rank tick-changed lists at the source, so the reference must share that
flush schedule, exactly as a surviving replica set in a real deployment
would. The suite also covers double failures, failure between chunked
``mine()`` batches (including the zero-loss case where the failure
lands on a barrier), degraded-mode semantics (healthy partitions keep
serving; traffic to the failed shard raises), echo loss accounting, and
replication's transparency to mining results.
"""

import random

import pytest

from repro.core.config import FarmerConfig
from repro.errors import ConfigError, ReplicationError, ShardFailedError
from repro.service.sharded import ShardedFarmer
from repro.traces.synthetic import generate_trace
from tests.conftest import cached_trace, sequence_records
from tests.oracle import entrywise_kernel


def replicated_config(**overrides) -> FarmerConfig:
    base = dict(
        max_strength=0.3,
        n_shards=4,
        replication=True,
        standby_sync_interval=2000,
    )
    base.update(overrides)
    return FarmerConfig(**base)


def owned_by(service: ShardedFarmer, index: int) -> list[int]:
    """Fids with graph state on shard ``index`` that it actually owns
    (halo nodes from boundary echoes are not queryable state)."""
    route = service.router.route
    return sorted(
        fid
        for fid in service.shards[index].constructor.graph.nodes()
        if route(fid) == index
    )


def assert_partition_matches(
    promoted: ShardedFarmer, reference: ShardedFarmer, index: int
) -> None:
    """Every owned query of shard ``index`` agrees between the two."""
    fids = set(owned_by(promoted, index)) | set(owned_by(reference, index))
    assert fids, "vacuous comparison: the shard owns nothing"
    for fid in sorted(fids):
        assert promoted.correlators(fid) == reference.correlators(fid), fid
        assert promoted.predict(fid) == reference.predict(fid), fid


class TestFailoverBarrierIdentity:
    """fail → promote ≡ never-failed at the last sync barrier."""

    @pytest.mark.parametrize("policy", ["hash", "consistent_hash"])
    def test_randomized_kill_points_every_shard_20k(self, policy, hp_trace_20k):
        """Acceptance property: each of the 4 shards killed at its own
        randomized point of the 20k trace, both router policies."""
        trace = hp_trace_20k
        cfg = replicated_config(
            shard_policy=policy, standby_sync_interval=4000
        )
        rng = random.Random(0xFA11 + (0 if policy == "hash" else 1))
        for index in range(cfg.n_shards):
            kill_at = rng.randrange(4001, len(trace))
            service = ShardedFarmer(cfg)
            for record in trace[:kill_at]:
                service.observe(record)
            barrier = service.last_standby_sync
            assert barrier >= 4000  # at least one barrier passed
            service.fail_shard(index)
            report = service.promote_standby(index)
            assert report.shard == index
            assert report.synced_at == barrier
            assert report.lag == kill_at - barrier
            assert report.n_nodes_restored > 0
            reference = ShardedFarmer(cfg)
            for record in trace[:barrier]:
                reference.observe(record)
            assert_partition_matches(service, reference, index)

    def test_double_failure_two_shards(self, synthetic_trace):
        """Two shards lost before either is recovered: both promotions
        restore their partitions to the shared barrier, and the healthy
        shards never stopped serving."""
        trace = synthetic_trace("hp", 8_000, seed=31)
        cfg = replicated_config()
        service = ShardedFarmer(cfg)
        for record in trace[:6_500]:
            service.observe(record)
        barrier = service.last_standby_sync
        assert barrier == 6_000
        service.fail_shard(0)
        service.fail_shard(2)
        assert service.failed_shards == (0, 2)
        # a healthy partition keeps answering while two shards are down
        healthy = next(f for f in owned_by(service, 1))
        assert service.correlators(healthy) is not None
        for index in (0, 2):
            service.promote_standby(index)
        assert service.failed_shards == ()
        reference = ShardedFarmer(cfg)
        for record in trace[:barrier]:
            reference.observe(record)
        assert_partition_matches(service, reference, 0)
        assert_partition_matches(service, reference, 2)
        assert service.stats().n_failovers == 2

    def test_refail_before_next_barrier_restores_promotion_snapshot(
        self, synthetic_trace
    ):
        """Promotion immediately re-protects the shard: failing it again
        before any new barrier restores the state the first promotion
        served (the reseed snapshot), not an empty shard."""
        trace = synthetic_trace("hp", 8_000, seed=31)
        cfg = replicated_config()
        service = ShardedFarmer(cfg)
        for record in trace[:6_500]:
            service.observe(record)
        barrier = service.last_standby_sync
        service.fail_shard(1)
        first = service.promote_standby(1)
        assert first.synced_at == barrier
        # keep streaming, but stay short of the next interval barrier
        for record in trace[6_500:6_900]:
            service.observe(record)
        assert service.last_standby_sync == barrier
        service.fail_shard(1)
        second = service.promote_standby(1)
        # the reseed ran at the first promotion (service time 6 500),
        # capturing the promoted shard's barrier-time partition state
        assert second.synced_at == 6_500
        reference = ShardedFarmer(cfg)
        for record in trace[:barrier]:
            reference.observe(record)
        assert_partition_matches(service, reference, 1)

    def test_fail_on_mine_barrier_recovers_with_zero_loss(
        self, synthetic_trace
    ):
        """Chunked batch mining syncs at the batch barrier, so a shard
        killed right after a chunk has a zero-record loss window — the
        promoted service, fed the remaining chunks, ends bit-identical
        to a service that never failed at all."""
        trace = synthetic_trace("hp", 6_000, seed=33)
        cfg = replicated_config(standby_sync_interval=1500)
        service = ShardedFarmer(cfg)
        service.mine(trace[:3_000])
        assert service.last_standby_sync == 3_000
        service.fail_shard(2)
        with pytest.raises(ShardFailedError):
            service.mine(trace[3_000:4_000])  # degraded: batch refused
        report = service.promote_standby(2)
        assert report.lag == 0  # the failure landed on a barrier
        service.mine(trace[3_000:])
        assert service.n_observed == len(trace)
        never_failed = ShardedFarmer(cfg)
        never_failed.mine(trace[:3_000])
        never_failed.mine(trace[3_000:])
        for index in range(cfg.n_shards):
            assert_partition_matches(service, never_failed, index)

    def test_failover_after_rebalance(self, synthetic_trace):
        """A rebalance rebuilds every standby against the new topology;
        a brand-new shard is immediately protected."""
        trace = synthetic_trace("hp", 4_000, seed=35)
        cfg = replicated_config(standby_sync_interval=1000)
        service = ShardedFarmer(cfg)
        for record in trace:
            service.observe(record)
        service.rebalance(n_shards=6, policy="consistent_hash")
        # the rebalance took a fresh barrier at the new topology
        assert service.last_standby_sync == len(trace)
        index = 5  # a shard that did not exist before the rebalance
        fids = owned_by(service, index)
        assert fids, "need a populated brand-new shard for this test"
        before = {fid: service.correlators(fid) for fid in fids}
        service.fail_shard(index)
        report = service.promote_standby(index)
        assert report.lag == 0
        assert {fid: service.correlators(fid) for fid in fids} == before


class TestDegradedMode:
    """Semantics between ``fail_shard`` and ``promote_standby``."""

    def setup_service(self) -> ShardedFarmer:
        service = ShardedFarmer(replicated_config())
        for record in cached_trace("hp", 2_000, 7):
            service.observe(record)
        return service

    def test_traffic_to_failed_shard_raises_and_others_serve(self):
        service = self.setup_service()
        service.fail_shard(3)
        victim = next(
            r for r in cached_trace("hp", 2_000, 7) if r.fid % 4 == 3
        )
        with pytest.raises(ShardFailedError) as exc:
            service.observe(victim)
        assert exc.value.shard == 3
        with pytest.raises(ShardFailedError):
            service.correlators(victim.fid)
        with pytest.raises(ShardFailedError):
            service.predict(victim.fid)
        # healthy partitions are unaffected, reads and writes
        survivor = next(
            r for r in cached_trace("hp", 2_000, 7) if r.fid % 4 == 0
        )
        service.observe(survivor)
        assert service.correlators(survivor.fid) is not None

    def test_mine_and_rebalance_refused_while_degraded(self):
        service = self.setup_service()
        service.fail_shard(0)
        with pytest.raises(ShardFailedError):
            service.mine(cached_trace("hp", 2_000, 7)[:100])
        with pytest.raises(ShardFailedError):
            service.rebalance(n_shards=6)
        service.promote_standby(0)
        service.mine(cached_trace("hp", 2_000, 7)[:100])  # healthy again

    def test_echoes_to_failed_destination_are_dropped_and_counted(self):
        cfg = replicated_config(
            n_shards=4, max_strength=0.0, weight_p=0.0
        )
        service = ShardedFarmer(cfg)
        # fid 4 owns shard 0; fid 1 owns shard 1: 4 → 1 is a boundary
        # pair whose echo targets shard 0
        r4, r1 = sequence_records([4, 1])
        service.observe(r4)
        service.fail_shard(0)
        service.observe(r1)  # prev owner 0 is down: echo dropped
        assert service.n_echoes_dropped == 1
        assert service.n_pending_echoes == 0
        service.promote_standby(0)
        # the dropped echo is gone for good (at-most-once delivery)
        assert service.correlation_degree(4, 1) == 0.0

    def test_inflight_echoes_die_with_the_shard(self):
        cfg = replicated_config(
            n_shards=2, max_strength=0.0, weight_p=0.0
        )
        service = ShardedFarmer(cfg)
        for record in sequence_records([2, 3]):
            service.observe(record)  # echo for shard 0 sits queued
        assert service.n_pending_echoes == 1
        service.fail_shard(0)
        assert service.n_pending_echoes == 0
        assert service.n_echoes_dropped == 1

    def test_stats_and_snapshot_exclude_failed_partition(self):
        service = self.setup_service()
        whole = service.snapshot()
        service.fail_shard(2)
        degraded = service.snapshot()
        assert degraded.n_lists < whole.n_lists
        stats = service.stats()  # must not raise while degraded
        assert stats.n_failovers == 0
        assert stats.shards[2].n_files == 0  # the empty placeholder

    def test_misuse_raises(self):
        service = self.setup_service()
        with pytest.raises(ReplicationError):
            service.promote_standby(1)  # not failed
        service.fail_shard(1)
        with pytest.raises(ReplicationError):
            service.fail_shard(1)  # already failed
        with pytest.raises(ConfigError):
            service.fail_shard(9)  # no such shard
        unreplicated = ShardedFarmer(FarmerConfig(n_shards=2))
        with pytest.raises(ReplicationError):
            unreplicated.fail_shard(0)
        with pytest.raises(ReplicationError):
            unreplicated.sync_standbys()


class TestReplicationTransparency:
    """Standby upkeep must never change what the service serves."""

    def test_lockstep_queries_identical_with_and_without(
        self, synthetic_trace
    ):
        """The FPA pattern, replicated vs unreplicated, in lockstep:
        identical queries at every point. (Final *snapshots* are out of
        scope by design: a sync barrier ranks tick-changed lists early,
        so an untouched list freezes at barrier state where the
        unreplicated service freezes it at its last rank — the same
        freshness scope as lazy batch ``mine``. A queried-dirty list is
        a pure function of current state either way, which is what this
        lockstep pins.)"""
        trace = synthetic_trace("hp", 4_000, seed=35)
        replicated = ShardedFarmer(
            replicated_config(standby_sync_interval=500)
        )
        plain = ShardedFarmer(
            FarmerConfig(max_strength=0.3, n_shards=4)
        )
        for record in trace:
            replicated.observe(record)
            plain.observe(record)
            assert replicated.predict(record.fid) == plain.predict(record.fid)
            assert replicated.correlators(record.fid) == plain.correlators(
                record.fid
            )
        assert replicated.n_boundary_echoes == plain.n_boundary_echoes
        assert replicated.stats().n_standby_syncs == 8

    def test_sync_cadence_and_explicit_barrier(self, synthetic_trace):
        trace = synthetic_trace("hp", 2_500, seed=37)
        service = ShardedFarmer(replicated_config(standby_sync_interval=1000))
        for record in trace[:999]:
            service.observe(record)
        assert service.last_standby_sync == 0  # cadence not reached yet
        service.observe(trace[999])
        assert service.last_standby_sync == 1000
        report = service.sync_standbys()  # explicit barrier, on demand
        assert report.at_observed == 1000
        assert report.n_shards_synced == 4
        assert service.stats().n_standby_syncs == 2

    def test_standby_memory_is_accounted(self, synthetic_trace):
        trace = synthetic_trace("hp", 2_500, seed=37)
        replicated = ShardedFarmer(
            replicated_config(standby_sync_interval=1000)
        )
        plain = ShardedFarmer(FarmerConfig(max_strength=0.3, n_shards=4))
        for record in trace:
            replicated.observe(record)
            plain.observe(record)
        # the standbys are real resident state: strictly more memory
        assert replicated.memory_bytes() > plain.memory_bytes()


def owned_fids(service: ShardedFarmer) -> set[int]:
    out: set[int] = set()
    for shard in service.shards:
        out.update(shard.constructor.graph.nodes())
    return out


def query_map(service: ShardedFarmer, fids) -> dict:
    return {
        fid: (service.correlators(fid), service.predict(fid))
        for fid in sorted(fids)
    }


class TestServiceEquivalence:
    def test_rebalance_and_failover_schedule(self):
        """The re-rank kernel sits below every migration/replication
        seam: an identical mine/rebalance/fail/promote schedule on the
        production re-rank and the entrywise reference kernel
        (``tests.oracle.entrywise_kernel``, which also covers the
        standbys and placeholders the service builds) ends in identical
        query state."""
        trace = generate_trace("hp", 12_000, seed=41)

        def run() -> ShardedFarmer:
            service = ShardedFarmer(replicated_config())
            service.mine(trace[:6_000])
            service.rebalance(n_shards=6)
            service.mine(trace[6_000:10_000])
            service.sync_standbys()  # zero-lag barrier: lossless failover
            service.fail_shard(2)
            service.promote_standby(2)
            service.mine(trace[10_000:])
            return service

        with entrywise_kernel():
            entrywise = run()
            fids = owned_fids(entrywise)
            expected = query_map(entrywise, fids)
        bulk = run()
        assert owned_fids(bulk) == fids
        assert query_map(bulk, fids) == expected


class TestDeltaSync:
    def test_delta_path_engages_and_promotes_identically(self):
        """Steady-state standby barriers ship stats-only nodes as
        in-place array deltas (``n_delta_syncs``), and a standby built
        that way still promotes to a bit-identical shard."""
        trace = generate_trace("hp", 8_000, seed=43)
        cfg = replicated_config(
            n_shards=2,
            standby_sync_interval=100_000,  # explicit barriers only
        )

        def run(fail: bool) -> ShardedFarmer:
            service = ShardedFarmer(cfg)
            service.mine(trace[:6_000])
            service.sync_standbys()
            # steady state: mostly re-touches of known files, so most
            # changed nodes keep their successor membership
            service.mine(trace[6_000:6_600])
            report = service.sync_standbys()
            assert report.n_delta_syncs > 0
            assert (
                report.n_delta_syncs + report.n_full_clones
                == report.n_nodes_shipped
            )
            if fail:
                service.fail_shard(0)
                service.promote_standby(0)
            return service

        promoted = run(fail=True)
        reference = run(fail=False)
        fids = owned_fids(reference)
        assert owned_fids(promoted) == fids
        # the promoted shard 0 was rebuilt from clones *and* in-place
        # array deltas at a zero-lag barrier: every query must match the
        # never-failed service bit for bit
        assert query_map(promoted, fids) == query_map(reference, fids)
