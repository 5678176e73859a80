"""Benchmarks of the sharded mining service (`repro.service`).

Every number here is measured on one thread: the shards of a
:class:`~repro.service.sharded.ShardedFarmer` run in one process, and
the end-to-end timings of the service live in ``perfbench/``. These
benches time individual service mechanisms (batch mine, routed
prefetch, rebalance, failover, standby sync, online ingest, snapshot
restore, tiering) and assert their output properties.

Run with::

    pytest benchmarks/bench_service.py -q -s \
        -o python_files='bench_*.py' -o python_functions='bench_*' --json
"""

from __future__ import annotations

from repro.core.config import FarmerConfig
from repro.service.sharded import ShardedFarmer
from repro.storage.cluster import SimulationConfig, run_simulation
from repro.storage.prefetch import ShardedFarmerPrefetcher

BASE = FarmerConfig()


def bench_sharded_batch_mine_4shards(benchmark, hp_bench_trace, bench_record):
    """The service's batch ``mine()`` path (per-shard tick flush)."""

    def mine():
        return ShardedFarmer(BASE.with_(n_shards=4)).mine(hp_bench_trace)

    service = benchmark.pedantic(mine, rounds=3, iterations=1)
    assert service.n_observed == len(hp_bench_trace)
    per_req_us = benchmark.stats["mean"] / len(hp_bench_trace) * 1e6
    print(f"\n[sharded batch mine: {per_req_us:.1f} us/request (sequential)]")
    from dataclasses import asdict

    bench_record(
        us_per_request=per_req_us,
        records_per_s=len(hp_bench_trace) / benchmark.stats["mean"],
        rerank=asdict(service.stats().rerank),
    )


def bench_routed_prefetch_cluster(benchmark, hp_bench_trace, bench_record):
    """Cluster-routed prefetch vs candidate-drop in the 4-MDS cluster.

    Same engine, same per-request candidate budget and queue limits;
    the routed variant forwards cross-server candidates to the owning
    MDS's prefetch queue instead of dropping them. The asserted (and
    BENCH_service.json-recorded) property is a strictly higher demand
    hit ratio.
    """
    config = SimulationConfig(n_mds=4, cache_capacity=24)

    def engine():
        return ShardedFarmerPrefetcher(ShardedFarmer(BASE.with_(n_shards=4)))

    def routed():
        return run_simulation(
            hp_bench_trace,
            engine(),
            SimulationConfig(n_mds=4, cache_capacity=24, routed_prefetch=True),
        )

    routed_report = benchmark.pedantic(routed, rounds=2, iterations=1)
    drop_report = run_simulation(hp_bench_trace, engine(), config)
    print(
        f"\n[routed hit {routed_report.hit_ratio:.3f} "
        f"({routed_report.prefetch_forwarded} forwarded) vs "
        f"drop hit {drop_report.hit_ratio:.3f}; issued "
        f"{routed_report.prefetch_issued} vs {drop_report.prefetch_issued}]"
    )
    assert routed_report.hit_ratio > drop_report.hit_ratio
    assert routed_report.prefetch_forwarded > 0
    bench_record(
        routed_hit_ratio=routed_report.hit_ratio,
        drop_hit_ratio=drop_report.hit_ratio,
        routed_prefetch_forwarded=routed_report.prefetch_forwarded,
        routed_prefetch_issued=routed_report.prefetch_issued,
        drop_prefetch_issued=drop_report.prefetch_issued,
        routed_mean_response_us=routed_report.mean_response_ns / 1e3,
        drop_mean_response_us=drop_report.mean_response_ns / 1e3,
    )


def bench_rebalance_migration(benchmark, hp_bench_trace, bench_record):
    """Topology change on a mined service: consistent-hash 4 → 5.

    Measures the migration itself (rank + ship the moved fids'
    nodes/lists) and records the moved fraction — the consistent-hash
    contract is a minority move, so migration stays far cheaper than
    the re-mine it replaces.
    """
    cfg = BASE.with_(n_shards=4, shard_policy="consistent_hash")

    def migrate():
        service = ShardedFarmer(cfg).mine(hp_bench_trace)
        return service.rebalance(n_shards=5)

    report = benchmark.pedantic(migrate, rounds=2, iterations=1)
    # benchmark timing includes the mine; the report's own clock is the
    # migration alone
    print(
        f"\n[rebalance 4->5: moved {report.n_migrated}/{report.n_owned} fids "
        f"({report.moved_fraction:.1%}) in {report.elapsed_s * 1e3:.1f}ms]"
    )
    assert 0 < report.moved_fraction < 0.5
    bench_record(
        migration_s=report.elapsed_s,
        n_migrated=report.n_migrated,
        n_owned=report.n_owned,
        moved_fraction=report.moved_fraction,
    )


def bench_failover_recovery(benchmark, hp_bench_trace, bench_record):
    """Failover on a mined, replicated 4-shard service: kill each shard
    and promote its warm standby.

    The benchmark loop times the full kill-promote-reprotect cycle over
    all four shards; the recorded per-shard numbers split promotion
    (the partition's unavailability window once failure is detected —
    installing the standby, no state copied) from reseeding (building
    and fully syncing the replacement standby). The asserted property:
    every promotion restores a populated partition at zero loss (the
    batch mine ends on a sync barrier).
    """
    cfg = BASE.with_(
        n_shards=4, replication=True, standby_sync_interval=500
    )
    service = ShardedFarmer(cfg).mine(hp_bench_trace)

    def failover_cycle():
        reports = []
        for index in range(4):
            service.fail_shard(index)
            reports.append(service.promote_standby(index))
        return reports

    reports = benchmark.pedantic(failover_cycle, rounds=3, iterations=1)
    assert all(r.n_nodes_restored > 0 for r in reports)
    assert all(r.lag == 0 for r in reports)  # mine synced at its barrier
    mean_promote = sum(r.promote_s for r in reports) / len(reports)
    mean_reseed = sum(r.reseed_s for r in reports) / len(reports)
    print(
        f"\n[failover: promote {mean_promote * 1e6:.0f}us/shard, "
        f"reseed {mean_reseed * 1e3:.1f}ms/shard, "
        f"{reports[0].n_nodes_restored} nodes on shard 0]"
    )
    bench_record(
        promote_s=mean_promote,
        reseed_s=mean_reseed,
        n_nodes_restored=reports[0].n_nodes_restored,
        lag_records=reports[0].lag,
    )


def bench_standby_sync_overhead(benchmark, hp_bench_trace, bench_record):
    """What replication costs the live observe path: the same FPA loop
    with and without standby sync barriers every 500 accepted requests.

    The asserted property is transparency (identical predictions); the
    recorded number is the wall-clock overhead ratio, the price of a
    500-request failover loss window.
    """
    import time as _time

    def replay(cfg):
        service = ShardedFarmer(cfg)
        start = _time.perf_counter()
        for record in hp_bench_trace:
            service.observe(record)
            service.predict(record.fid)
        return service, _time.perf_counter() - start

    replay(BASE.with_(n_shards=4))  # warm-up

    def timed_pair():
        _, plain_s = replay(BASE.with_(n_shards=4))
        replicated, replicated_s = replay(
            BASE.with_(n_shards=4, replication=True, standby_sync_interval=500)
        )
        return replicated, plain_s, replicated_s

    replicated, plain_s, replicated_s = benchmark.pedantic(
        timed_pair, rounds=2, iterations=1
    )
    stats = replicated.stats()
    assert stats.n_standby_syncs == len(hp_bench_trace) // 500
    overhead = replicated_s / plain_s if plain_s > 0 else 1.0
    # how the shipped nodes travelled across all barriers: in-place
    # successor-array deltas (same membership at the standby) vs
    # whole-node clones — steady-state barriers should go mostly delta
    replicas = replicated._replicator.replicas
    n_delta = sum(r.n_delta_syncs for r in replicas)
    n_clone = sum(r.n_full_clones for r in replicas)
    print(
        f"\n[standby sync overhead: {overhead:.2f}x wall clock "
        f"({stats.n_standby_syncs} barriers over {len(hp_bench_trace)} "
        f"records; plain {plain_s * 1e3:.0f}ms vs replicated "
        f"{replicated_s * 1e3:.0f}ms; shipped {n_delta} array deltas + "
        f"{n_clone} full clones]"
    )
    bench_record(
        sync_overhead_ratio=overhead,
        plain_observe_predict_s=plain_s,
        replicated_observe_predict_s=replicated_s,
        n_standby_syncs=stats.n_standby_syncs,
        standby_sync_interval=500,
        n_delta_syncs=n_delta,
        n_full_clones=n_clone,
    )


def bench_auto_rebalance_decision(benchmark, hp_bench_trace, bench_record):
    """The load-aware decision on a mined service: read shard loads,
    build ring weights, migrate. Records the moved fraction the
    feedback loop costs (weights near uniform on a balanced workload,
    so the migration is dominated by the hash → consistent_hash policy
    switch)."""
    cfg = BASE.with_(n_shards=4)

    def decide():
        service = ShardedFarmer(cfg).mine(hp_bench_trace)
        return service.auto_rebalance()

    report = benchmark.pedantic(decide, rounds=2, iterations=1)
    print(
        f"\n[auto-rebalance: loads {tuple(int(v) for v in report.loads)} -> "
        f"weights {tuple(round(w, 2) for w in report.weights)}; moved "
        f"{report.rebalance.moved_fraction:.1%} in "
        f"{report.rebalance.elapsed_s * 1e3:.1f}ms]"
    )
    assert len(report.weights) == 4
    bench_record(
        decision_s=report.rebalance.elapsed_s,
        moved_fraction=report.rebalance.moved_fraction,
        weights=list(report.weights),
        loads=list(report.loads),
    )


def bench_online_ingest(benchmark, hp_bench_trace, bench_record):
    """The online ingestion path end to end: trace offered through the
    bounded queue with the consumer thread live, predict queries
    interleaved at the API cadence, then one drain barrier.

    The asserted property: no record is lost — nothing reaches the
    hard shed bound or the deferral watermark, and every accepted
    record is consumed. A producer this hot may cross the *echo*
    watermark (the first, gentlest rung of the ladder: those records
    still mine on their owner shard); the count is recorded, not
    forbidden. The recorded numbers are the sustained offer-to-drain
    throughput, the peak queue depth the consumer allowed (from the
    telemetry plane's ``queue_depth`` series, the same series the HTTP
    API serves), and per-endpoint p50/p95/p99 for ``predict`` and
    ``ingest_batch``.
    """
    import time as _time

    from repro.online import OnlineService

    def run():
        with OnlineService(BASE.with_(n_shards=4), batch_size=256) as svc:
            start = _time.perf_counter()
            for i, record in enumerate(hp_bench_trace):
                svc.offer(record)
                if i % 16 == 0:
                    svc.predict(record.fid)
            svc.drain()
            elapsed = _time.perf_counter() - start
        return svc, elapsed

    svc, elapsed = benchmark.pedantic(run, rounds=2, iterations=1)
    counters = svc.pipeline.counters()
    assert counters.n_shed == 0
    assert counters.n_deferred == 0
    assert counters.n_consumed == counters.n_accepted == len(hp_bench_trace)
    peak_depth = svc.telemetry.series("queue_depth").max()
    latency = svc.telemetry.endpoint_summaries()
    predict = latency["predict"]
    ingest = latency["ingest_batch"]
    throughput = len(hp_bench_trace) / elapsed
    print(
        f"\n[online ingest: {throughput:,.0f} rec/s offer-to-drain; "
        f"peak queue depth {peak_depth:.0f}/{svc.pipeline.policy.capacity}; "
        f"{counters.n_echo_degraded} echo-degraded; "
        f"predict p50 {predict.p50_s * 1e6:.0f}us p99 {predict.p99_s * 1e6:.0f}us; "
        f"ingest_batch p50 {ingest.p50_s * 1e3:.1f}ms p99 {ingest.p99_s * 1e3:.1f}ms]"
    )
    bench_record(
        sustained_records_per_s=throughput,
        peak_queue_depth=peak_depth,
        queue_capacity=svc.pipeline.policy.capacity,
        n_batches=counters.n_batches,
        predict_p50_s=predict.p50_s,
        predict_p95_s=predict.p95_s,
        predict_p99_s=predict.p99_s,
        ingest_batch_p50_s=ingest.p50_s,
        ingest_batch_p95_s=ingest.p95_s,
        ingest_batch_p99_s=ingest.p99_s,
        n_echo_degraded=counters.n_echo_degraded,
        no_records_lost=True,
    )


def bench_snapshot_restore(benchmark, hp_bench_trace, bench_record, tmp_path):
    """Durability cost, recorded honestly (ISSUE 8):

    * WAL append overhead — the same offer→drain ingest run twice, with
      and without a journal (fsync ``interval``/64, the default), both
      rates recorded;
    * snapshot cost — bytes written and the barrier's ingest stall;
    * replay rate — a journaled-but-unmined tail recovered through
      ``ingest_stream``, in records/s.

    The asserted property is the durability contract itself: the
    recovered service's accepted-stream position equals everything that
    was journaled.
    """
    import shutil as _shutil
    import time as _time

    from repro.durability import DurabilityManager
    from repro.online import AdmissionPolicy, OnlineService

    cfg = BASE.with_(n_shards=4)
    wide = AdmissionPolicy(
        capacity=100_000, echo_watermark=1.0, defer_watermark=1.0
    )
    data_dir = tmp_path / "bench-data"

    def ingest(online):
        start = _time.perf_counter()
        for record in hp_bench_trace:
            online.offer(record)
        online.drain()
        return _time.perf_counter() - start

    def run():
        _shutil.rmtree(data_dir, ignore_errors=True)
        plain_s = ingest(OnlineService(cfg, policy=wide))
        manager = DurabilityManager(data_dir, fsync="interval")
        durable = OnlineService(cfg, policy=wide, durability=manager)
        durable_s = ingest(durable)
        snapshot = durable.checkpoint()
        # journal a tail past the barrier, then abandon (the crash) and
        # time its recovery replay
        for record in hp_bench_trace:
            durable.offer(record)
        manager.wal.close()
        recovered, recovery = DurabilityManager(data_dir).recover(cfg)
        assert recovery.durable_seq == 2 * len(hp_bench_trace)
        assert recovered.n_observed == recovery.durable_seq
        return plain_s, durable_s, snapshot, recovery

    plain_s, durable_s, snapshot, recovery = benchmark.pedantic(
        run, rounds=2, iterations=1
    )
    n = len(hp_bench_trace)
    plain_rate = n / plain_s
    durable_rate = n / durable_s
    replay_rate = recovery.wal_replayed / recovery.elapsed_s
    overhead = (plain_rate - durable_rate) / plain_rate
    print(
        f"\n[snapshot/restore: ingest {plain_rate:,.0f} rec/s plain vs "
        f"{durable_rate:,.0f} rec/s durable ({overhead:+.1%} WAL cost); "
        f"snapshot {snapshot.bytes_total / 1e6:.2f}MB in "
        f"{snapshot.elapsed_s * 1e3:.0f}ms stall; replay "
        f"{replay_rate:,.0f} rec/s over {recovery.wal_replayed} records]"
    )
    bench_record(
        plain_ingest_records_per_s=plain_rate,
        durable_ingest_records_per_s=durable_rate,
        wal_append_overhead_fraction=overhead,
        fsync_policy="interval",
        snapshot_bytes=snapshot.bytes_total,
        snapshot_stall_s=snapshot.elapsed_s,
        replay_records_per_s=replay_rate,
        replay_records=recovery.wal_replayed,
        recovery_elapsed_s=recovery.elapsed_s,
    )


def bench_tiering_showdown(benchmark, hp_bench_trace, bench_record):
    """Tier-placement showdown at equal tier budgets (ext_tiering).

    HP@4MDS at a tight fast-tier budget plus one planted-truth scenario:
    the correlated policy (co-promoting mined correlators, cross-server
    placement hints included) must beat both temporal-locality baselines
    on fast-hit ratio. The recorded rows are the BENCH_service.json
    trajectory for the tiering subsystem.
    """
    from repro.experiments.tiering_experiment import cached_scenario, tiered_report

    def correlated():
        return tiered_report(hp_bench_trace, "correlated", 0.05)

    hp = {"correlated": benchmark.pedantic(correlated, rounds=2, iterations=1)}
    for policy in ("lru", "lfu"):
        hp[policy] = tiered_report(hp_bench_trace, policy, 0.05)
    scenario_records, _ = cached_scenario("pipeline", len(hp_bench_trace), 1)
    scen = {
        policy: tiered_report(scenario_records, policy, 0.1, seed=1)
        for policy in ("lru", "lfu", "correlated")
    }
    print(
        "\n[fast-hit hp@0.05: "
        + " ".join(f"{p}={hp[p].fast_hit_ratio:.3f}" for p in hp)
        + " | pipeline@0.1: "
        + " ".join(f"{p}={scen[p].fast_hit_ratio:.3f}" for p in scen)
        + "]"
    )
    for group in (hp, scen):
        assert group["correlated"].fast_hit_ratio > group["lru"].fast_hit_ratio
        assert group["correlated"].fast_hit_ratio > group["lfu"].fast_hit_ratio
    assert hp["correlated"].tier_hints_forwarded > 0
    bench_record(
        **{
            f"tiering_hp_{p}_fast_hit": hp[p].fast_hit_ratio for p in hp
        },
        **{
            f"tiering_pipeline_{p}_fast_hit": scen[p].fast_hit_ratio
            for p in scen
        },
        tiering_hp_correlated_hints=hp["correlated"].tier_hints_forwarded,
        tiering_hp_correlated_promotions=hp["correlated"].tier_promotions,
        tiering_hp_correlated_demotions=hp["correlated"].tier_demotions,
        tiering_hp_correlated_mean_response_us=(
            hp["correlated"].mean_response_ns / 1e3
        ),
    )
