"""Command-line entry point: run any paper experiment from the shell.

Usage::

    farmer-repro list
    farmer-repro run fig7 --events 6000 --seeds 1,2,3
    farmer-repro run table2
    farmer-repro all --events 3000 --seeds 1
    farmer-repro service --events 20000 --shards 1,2,4,8
    farmer-repro service --shards 4 --router consistent_hash --rebalance 6
    farmer-repro service --shards 4 --mds 4 --routed-prefetch
    farmer-repro serve --shards 4 --replicate --tail /var/log/trace.jsonl
    farmer-repro workload --events 6000
    farmer-repro workload diurnal --shards 4 --json
    farmer-repro storage --tiering correlated --tier-frac 0.1
    farmer-repro storage pipeline --tiering all --json

or equivalently ``python -m repro ...``. The ``service`` subcommand
times the live observe/predict loop of one miner and of the sharded
mining service on one thread (measured wall clock per shard count),
and can additionally demonstrate shard rebalancing (``--rebalance``)
and the cluster-routed prefetch path (``--mds`` /
``--routed-prefetch``). The ``serve`` subcommand runs the *online*
ingestion service instead: trace-tailing or replay agents in front of a
bounded admission queue, a consumer draining into the shards, and an
HTTP query/admin API with live telemetry (:mod:`repro.online`).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="farmer-repro",
        description="FARMER (HPDC 2008) reproduction experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_scale_args(run_p)

    all_p = sub.add_parser("all", help="run every experiment")
    _add_scale_args(all_p)

    svc_p = sub.add_parser(
        "service", help="benchmark the sharded mining service vs one miner"
    )
    svc_p.add_argument(
        "--trace", default="hp", help="synthetic trace profile (default hp)"
    )
    svc_p.add_argument(
        "--events", type=int, default=20_000, help="trace length (events)"
    )
    svc_p.add_argument("--seed", type=int, default=1, help="trace seed")
    svc_p.add_argument(
        "--shards",
        type=str,
        default="1,2,4,8",
        help="comma-separated shard counts, e.g. 1,4",
    )
    svc_p.add_argument(
        "--router",
        choices=("hash", "range", "consistent_hash"),
        default=None,
        help=(
            "namespace partitioning policy (consistent_hash = virtual-node "
            "ring; rebalancing moves only ~1/n of the fids)"
        ),
    )
    svc_p.add_argument(
        "--policy",
        choices=("hash", "range", "consistent_hash"),
        default=None,
        help="deprecated alias of --router",
    )
    svc_p.add_argument(
        "--rebalance",
        type=int,
        default=None,
        metavar="N",
        help=(
            "after the replay, rebalance a mined service to N shards "
            "(migrates only the fids whose owner changed) and report the "
            "migration"
        ),
    )
    svc_p.add_argument(
        "--replicate",
        action="store_true",
        help=(
            "keep one warm standby per shard, synced through the migration "
            "seam every --sync-interval accepted requests (enables "
            "--fail-shard)"
        ),
    )
    svc_p.add_argument(
        "--sync-interval",
        type=int,
        default=1024,
        metavar="K",
        help="standby sync cadence in accepted requests (with --replicate)",
    )
    svc_p.add_argument(
        "--fail-shard",
        type=int,
        default=None,
        metavar="I",
        help=(
            "after the replay, kill shard I's private state, promote its "
            "standby, and report recovery time and the loss window "
            "(requires --replicate)"
        ),
    )
    svc_p.add_argument(
        "--auto-rebalance",
        action="store_true",
        help=(
            "after the replay, feed observed per-shard load into "
            "consistent-hash ring weights and rebalance onto them "
            "(reports loads, weights and the migration)"
        ),
    )
    svc_p.add_argument(
        "--mds",
        type=int,
        default=None,
        metavar="N",
        help=(
            "also run the N-server cluster simulation comparing candidate-"
            "drop vs cluster-routed prefetch (see --routed-prefetch)"
        ),
    )
    svc_p.add_argument(
        "--routed-prefetch",
        action="store_true",
        help=(
            "with --mds: additionally run the cluster-routed variant "
            "(cross-server prefetch candidates forwarded to the owning "
            "MDS's queue instead of dropped) and compare hit ratios"
        ),
    )
    svc_p.add_argument(
        "--isolate",
        action="store_true",
        help="strict partition isolation (drop cross-shard boundary edges)",
    )
    svc_p.add_argument(
        "--no-predict",
        action="store_true",
        help="time observe() only (skip the per-request FPA predict)",
    )

    wl_p = sub.add_parser(
        "workload",
        help=(
            "evaluate mining accuracy on the planted-truth scenario "
            "suite: precision@k / recall@k / prefetch-hit headroom"
        ),
    )
    wl_p.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="scenario names (default: all; see `workload --list`)",
    )
    wl_p.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list the registered scenarios and exit",
    )
    wl_p.add_argument(
        "--events",
        type=int,
        default=None,
        help="events per scenario (default 6000)",
    )
    wl_p.add_argument("--seed", type=int, default=0, help="scenario seed")
    wl_p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="mine through an N-shard ShardedFarmer instead of one Farmer",
    )
    wl_p.add_argument(
        "--online",
        action="store_true",
        help=(
            "drive the stream through the full online ingestion service "
            "(ReplayAgent -> admission queue -> shards) before scoring"
        ),
    )
    wl_p.add_argument(
        "--ks",
        type=str,
        default="1,4",
        help="comma-separated precision/recall cut-offs (default 1,4)",
    )
    wl_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one JSON object per scenario instead of the table",
    )

    st_p = sub.add_parser(
        "storage",
        help=(
            "run the tiered-storage placement showdown: fast-tier hit "
            "ratio of lru / lfu / correlated at one tier budget"
        ),
    )
    st_p.add_argument(
        "workload",
        nargs="?",
        default="hp",
        help=(
            "trace profile (hp, ins, ...) or planted-truth scenario name "
            "(default hp)"
        ),
    )
    st_p.add_argument(
        "--tiering",
        choices=("lru", "lfu", "correlated", "all"),
        default="all",
        help="tier policy to run (default: all three, as a showdown)",
    )
    st_p.add_argument(
        "--tier-frac",
        type=float,
        default=0.1,
        dest="tier_frac",
        help="fast-tier capacity as a fraction of each server's objects",
    )
    st_p.add_argument(
        "--tier-k",
        type=int,
        default=4,
        dest="tier_k",
        help="correlators co-promoted per access (correlated policy)",
    )
    st_p.add_argument(
        "--events", type=int, default=2500, help="trace events to replay"
    )
    st_p.add_argument("--seed", type=int, default=1, help="trace seed")
    st_p.add_argument(
        "--mds", type=int, default=4, help="metadata server count"
    )
    st_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one JSON object per policy instead of the table",
    )

    serve_p = sub.add_parser(
        "serve",
        help=(
            "run the online ingestion service: bounded-queue admission in "
            "front of the sharded miner, HTTP query/admin API, live "
            "telemetry"
        ),
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind host")
    serve_p.add_argument(
        "--port",
        type=int,
        default=8787,
        help="bind port (0 = ephemeral; the bound port is printed)",
    )
    serve_p.add_argument(
        "--trace",
        default="hp",
        help="trace profile for the attribute set (default hp)",
    )
    serve_p.add_argument(
        "--shards", type=int, default=4, help="miner shard count"
    )
    serve_p.add_argument(
        "--router",
        choices=("hash", "range", "consistent_hash"),
        default="hash",
        help="namespace partitioning policy",
    )
    serve_p.add_argument(
        "--replicate",
        action="store_true",
        help="keep one warm standby per shard (enables failover over the API)",
    )
    serve_p.add_argument(
        "--sync-interval",
        type=int,
        default=1024,
        metavar="K",
        help="standby sync cadence in accepted requests (with --replicate)",
    )
    serve_p.add_argument(
        "--queue-capacity",
        type=int,
        default=4096,
        help="hard bound of the ingest queue (offers at this depth shed)",
    )
    serve_p.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="records the consumer drains per batch",
    )
    serve_p.add_argument(
        "--echo-watermark",
        type=float,
        default=0.5,
        help=(
            "queue fraction above which admitted records shed their "
            "cross-shard echo (graceful degradation engages first)"
        ),
    )
    serve_p.add_argument(
        "--defer-watermark",
        type=float,
        default=0.9,
        help="queue fraction above which offers defer (source backpressure)",
    )
    serve_p.add_argument(
        "--tail",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "tail a JSONL trace file: records appended by another process "
            "are mined live (the deployment seam)"
        ),
    )
    serve_p.add_argument(
        "--replay-events",
        type=int,
        default=None,
        metavar="N",
        help="replay an N-event synthetic trace through the pipeline",
    )
    serve_p.add_argument(
        "--seed", type=int, default=1, help="synthetic trace seed"
    )
    serve_p.add_argument(
        "--rate",
        type=float,
        default=5000.0,
        help="replay arrival rate (records/s; see --pattern)",
    )
    serve_p.add_argument(
        "--pattern",
        choices=("constant", "bursty", "diurnal"),
        default="constant",
        help=(
            "replay arrival pattern: constant --rate, bursty (5x --rate "
            "bursts at 20%% duty), or diurnal (sinusoid between --rate/5 "
            "and --rate)"
        ),
    )
    serve_p.add_argument(
        "--pace",
        action="store_true",
        help="really sleep the replay ticks (wall-clock arrival replay)",
    )
    serve_p.add_argument(
        "--data-dir",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "durable mode: journal accepted records to a write-ahead "
            "log and checkpoint snapshots under DIR (created if absent); "
            "without it the mined state is memory-only"
        ),
    )
    serve_p.add_argument(
        "--snapshot-interval",
        type=int,
        default=20000,
        metavar="N",
        help=(
            "checkpoint every N consumed records (0 = only on demand "
            "via POST /snapshot and at shutdown; needs --data-dir)"
        ),
    )
    serve_p.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="interval",
        help=(
            "WAL fsync policy: every append, every --fsync-every "
            "appends, or leave flushing to the OS (see docs/durability.md)"
        ),
    )
    serve_p.add_argument(
        "--fsync-every",
        type=int,
        default=64,
        metavar="K",
        help="appends between fsyncs under --fsync interval",
    )
    serve_p.add_argument(
        "--recover",
        action="store_true",
        help=(
            "restore from --data-dir before serving: load the latest "
            "snapshot and replay the WAL tail (required when the data "
            "directory already holds state)"
        ),
    )
    return parser


def _time_live_loop(miner, records, predict: bool) -> float:
    """Wall seconds of the live loop on one thread: ``observe`` each
    record, ``predict`` it when asked, then ``snapshot()`` (so deferred
    re-rank work is inside the timing)."""
    start = time.perf_counter()
    for record in records:
        miner.observe(record)
        if predict:
            miner.predict(record.fid)
    miner.snapshot()
    return time.perf_counter() - start


def _run_service(args: argparse.Namespace) -> int:
    from repro.core.farmer import Farmer
    from repro.experiments.common import farmer_config_for
    from repro.service.sharded import ShardedFarmer
    from repro.traces.synthetic import generate_trace

    policy = args.router or args.policy or "hash"
    # farmer_config_for picks the trace's attribute set (Table 5): HP/LLNL
    # mine paths, INS/RES fall back to file id + device
    if args.fail_shard is not None and not args.replicate:
        print("--fail-shard requires --replicate", file=sys.stderr)
        return 2
    base = farmer_config_for(
        args.trace,
        shard_policy=policy,
        cross_shard_edges=not args.isolate,
        replication=args.replicate,
        standby_sync_interval=args.sync_interval,
    )
    records = generate_trace(args.trace, args.events, seed=args.seed)
    predict = not args.no_predict
    mode = "observe+predict" if predict else "observe"
    shard_counts = [int(s) for s in args.shards.split(",") if s]
    rows = []
    base_rate = None
    for n_shards in dict.fromkeys([1, *shard_counts]):
        if n_shards == 1:
            miner = Farmer(base)
        else:
            miner = ShardedFarmer(base.with_(n_shards=n_shards))
        elapsed = _time_live_loop(miner, records, predict)
        rate = miner.n_observed / elapsed
        if base_rate is None:
            base_rate = rate
        echoes = miner.n_boundary_echoes if n_shards > 1 else 0
        rows.append(
            (
                n_shards,
                miner.n_observed,
                echoes,
                f"{elapsed:.2f}",
                f"{rate:,.0f}",
                f"{rate / base_rate:.2f}x" if base_rate else "-",
            )
        )
    print(
        f"sharded mining service on '{args.trace}' x{args.events} "
        f"(router={policy}, cross_shard_edges={not args.isolate}, "
        f"mode={mode}; measured wall clock, "
        "one thread)"
    )
    print(
        format_table(
            ("shards", "records", "echoes", "wall s", f"{mode}/s", "vs 1 shard"),
            rows,
        )
    )
    if args.rebalance is not None:
        n_before = max(shard_counts, default=4)
        service = ShardedFarmer(base.with_(n_shards=n_before)).mine(records)
        report = service.rebalance(args.rebalance)
        print(
            f"\nrebalance {report.n_shards_before} -> "
            f"{report.n_shards_after} shards ({report.policy}): migrated "
            f"{report.n_migrated}/{report.n_owned} fids "
            f"({report.moved_fraction:.1%}) in {report.elapsed_s * 1e3:.1f}ms "
            f"— only owner-changed fids move; nothing is re-mined"
        )
    if args.fail_shard is not None or args.auto_rebalance:
        # failover/rebalance need a real partition
        n_svc = max(max(shard_counts, default=4), 2)
        service = ShardedFarmer(base.with_(n_shards=n_svc)).mine(records)
        if args.fail_shard is not None:
            index = args.fail_shard % n_svc
            probe = next(
                (r.fid for r in records if service.shard_of(r.fid) == index),
                None,  # a tiny/skewed trace may leave the shard empty
            )
            if probe is not None:
                service.correlators(probe)  # the partition serves pre-failure
            service.fail_shard(index)
            report = service.promote_standby(index)
            if probe is not None:
                service.correlators(probe)  # ...and serves again afterwards
            print(
                f"\nfailover shard {index}/{n_svc}: promoted the warm "
                f"standby in {report.promote_s * 1e3:.2f}ms "
                f"({report.n_nodes_restored} nodes restored to the last "
                f"sync barrier at request {report.synced_at}; loss window "
                f"{report.lag} requests), re-protected in "
                f"{report.reseed_s * 1e3:.1f}ms"
            )
        if args.auto_rebalance:
            auto = service.auto_rebalance()
            loads = ", ".join(f"s{i}:{v:,.0f}" for i, v in enumerate(auto.loads))
            weights = ", ".join(
                f"s{i}:{w:.2f}" for i, w in enumerate(auto.weights)
            )
            print(
                f"\nauto-rebalance on observed load [{loads}] -> ring "
                f"weights [{weights}]: migrated "
                f"{auto.rebalance.n_migrated}/{auto.rebalance.n_owned} fids "
                f"({auto.rebalance.moved_fraction:.1%}) in "
                f"{auto.rebalance.elapsed_s * 1e3:.1f}ms"
            )
    if args.mds is not None:
        from repro.storage.cluster import SimulationConfig, run_simulation
        from repro.storage.prefetch import ShardedFarmerPrefetcher

        def cluster_engine():
            return ShardedFarmerPrefetcher(
                ShardedFarmer(base.with_(n_shards=args.mds))
            )

        variants = [("drop", False)]
        if args.routed_prefetch:
            variants.append(("routed", True))
        cluster_rows = []
        for label, routed in variants:
            rep = run_simulation(
                records,
                cluster_engine(),
                SimulationConfig(
                    n_mds=args.mds,
                    cache_capacity=24,
                    routed_prefetch=routed,
                    seed=args.seed,
                ),
            )
            cluster_rows.append(
                (
                    label,
                    f"{rep.hit_ratio:.3f}",
                    rep.prefetch_issued,
                    rep.prefetch_used,
                    rep.prefetch_forwarded,
                    f"{rep.mean_response_ns / 1e3:.1f}",
                )
            )
        print(
            f"\ncluster simulation: {args.mds} metadata servers, one "
            f"co-located miner shard each (cross-server candidates "
            f"{'routed vs dropped' if args.routed_prefetch else 'dropped'})"
        )
        print(
            format_table(
                (
                    "prefetch",
                    "hit ratio",
                    "issued",
                    "used",
                    "forwarded",
                    "mean resp us",
                ),
                cluster_rows,
            )
        )
    return 0


def _run_workload(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ConfigError
    from repro.workloads import (
        DEFAULT_EVENTS,
        SCENARIO_NAMES,
        evaluate_scenario,
        scenario_descriptions,
    )

    if args.list_scenarios:
        rows = [
            (name, desc) for name, desc in scenario_descriptions().items()
        ]
        print(format_table(("scenario", "description"), rows))
        return 0
    names = tuple(args.scenarios) or SCENARIO_NAMES
    unknown = [n for n in names if n not in SCENARIO_NAMES]
    if unknown:
        print(
            f"unknown scenario(s) {', '.join(unknown)}; expected "
            f"{', '.join(SCENARIO_NAMES)}",
            file=sys.stderr,
        )
        return 2
    try:
        ks = tuple(int(k) for k in args.ks.split(",") if k)
    except ValueError:
        print(f"--ks must be comma-separated integers: {args.ks!r}", file=sys.stderr)
        return 2
    n_events = args.events if args.events is not None else DEFAULT_EVENTS
    reports = []
    for name in names:
        try:
            reports.append(
                evaluate_scenario(
                    name,
                    n_events=n_events,
                    seed=args.seed,
                    ks=ks,
                    n_shards=args.shards,
                    online=args.online,
                )
            )
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.as_json:
        for report in reports:
            print(json.dumps(report.to_dict(), sort_keys=True))
        return 0
    miner = (
        f"online x{args.shards}"
        if args.online
        else (f"sharded x{args.shards}" if args.shards > 1 else "farmer")
    )
    print(
        f"scenario evaluation vs planted truth "
        f"(events={n_events}, seed={args.seed}, miner={miner}; "
        f"headroom = oracle hit rate - mined hit rate, negative when "
        f"mining beats the plant-only oracle)"
    )
    header = ["scenario", "truth", "scored"]
    for k in ks:
        header += [f"p@{k}", f"r@{k}"]
    header += ["oracle", "mined", "headroom"]
    rows = []
    for report in reports:
        row = [
            report.scenario,
            str(report.n_truth_pairs),
            str(report.n_scored_sources),
        ]
        for k in ks:
            m = report.at(k)
            row += [f"{m.precision:.3f}", f"{m.recall:.3f}"]
        row += [
            f"{report.oracle_hit_rate:.3f}",
            f"{report.mined_hit_rate:.3f}",
            f"{report.headroom:+.3f}",
        ]
        rows.append(tuple(row))
    print(format_table(tuple(header), rows))
    return 0


def _run_storage(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ConfigError
    from repro.experiments.common import cached_trace
    from repro.experiments.tiering_experiment import (
        TIER_POLICY_NAMES,
        cached_scenario,
        tiered_report,
    )
    from repro.workloads import SCENARIO_NAMES

    if args.workload in SCENARIO_NAMES:
        records, _ = cached_scenario(args.workload, args.events, args.seed)
        trace = "hp"  # miner attribute set for scenario streams
    else:
        try:
            records = cached_trace(args.workload, args.events, args.seed)
        except (ConfigError, KeyError) as exc:
            print(f"unknown workload {args.workload!r}: {exc}", file=sys.stderr)
            return 2
        trace = args.workload
    policies = (
        TIER_POLICY_NAMES if args.tiering == "all" else (args.tiering,)
    )
    results = []
    for policy in policies:
        try:
            report = tiered_report(
                records,
                policy,
                args.tier_frac,
                n_mds=args.mds,
                tier_k=args.tier_k,
                seed=args.seed,
                trace=trace,
            )
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        results.append((policy, report))
    if args.as_json:
        for policy, r in results:
            print(
                json.dumps(
                    {
                        "workload": args.workload,
                        "policy": policy,
                        "tier_fraction": args.tier_frac,
                        "tier_k": args.tier_k,
                        "n_mds": args.mds,
                        "events": args.events,
                        "seed": args.seed,
                        "fast_hit_ratio": round(r.fast_hit_ratio, 6),
                        "tier_promotions": r.tier_promotions,
                        "tier_co_promotions": r.tier_co_promotions,
                        "tier_demotions": r.tier_demotions,
                        "tier_hints_forwarded": r.tier_hints_forwarded,
                        "mean_response_us": round(r.mean_response_ns / 1e3, 3),
                    },
                    sort_keys=True,
                )
            )
        return 0
    print(
        f"tiered storage showdown on {args.workload!r} "
        f"(events={args.events}, seed={args.seed}, mds={args.mds}, "
        f"tier_frac={args.tier_frac}, tier_k={args.tier_k})"
    )
    rows = [
        (
            policy,
            f"{r.fast_hit_ratio:.3f}",
            str(r.tier_promotions),
            str(r.tier_co_promotions),
            str(r.tier_demotions),
            str(r.tier_hints_forwarded),
            f"{r.mean_response_ns / 1e3:.1f}",
        )
        for policy, r in results
    ]
    print(
        format_table(
            (
                "policy",
                "fast hit",
                "promos",
                "co-promos",
                "demos",
                "hints",
                "mean resp us",
            ),
            rows,
        )
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.experiments.common import farmer_config_for
    from repro.online import (
        AdminApiServer,
        AdmissionPolicy,
        BurstyRate,
        ConstantRate,
        DiurnalRate,
        FileTailAgent,
        OnlineService,
        ReplayAgent,
    )

    config = farmer_config_for(
        args.trace,
        n_shards=args.shards,
        shard_policy=args.router,
        replication=args.replicate,
        standby_sync_interval=args.sync_interval,
    )
    policy = AdmissionPolicy(
        capacity=args.queue_capacity,
        echo_watermark=args.echo_watermark,
        defer_watermark=args.defer_watermark,
    )

    durability = None
    service = None
    if args.recover and args.data_dir is None:
        print("--recover requires --data-dir", file=sys.stderr)
        return 2
    if args.data_dir is not None:
        from repro.durability import DurabilityManager

        durability = DurabilityManager(
            args.data_dir, fsync=args.fsync, fsync_every=args.fsync_every
        )
        if args.recover:
            service, recovery = durability.recover(config)
            print(
                f"recovered to seq {recovery.durable_seq} "
                f"(snapshot {recovery.snapshot_seq} + "
                f"{recovery.wal_replayed} WAL records replayed, "
                f"{recovery.wal_discarded_bytes} torn bytes discarded) "
                f"in {recovery.elapsed_s:.2f}s",
                flush=True,
            )
        elif durability.has_state():
            print(
                f"data dir {args.data_dir} already holds state; pass "
                f"--recover to restore it (refusing to fork the "
                f"accepted stream)",
                file=sys.stderr,
            )
            return 2
    online = OnlineService(
        config,
        service=service,
        policy=policy,
        batch_size=args.batch_size,
        durability=durability,
        snapshot_interval=(
            args.snapshot_interval if durability is not None else 0
        ),
    )
    api = AdminApiServer(online, host=args.host, port=args.port)

    # Ctrl-C / SIGTERM land on the same clean path as POST /shutdown:
    # stop agents, drain, final checkpoint, exit 0 — a durable service
    # never discards its tail on an operator-initiated stop
    def _signal_shutdown(signum, frame):
        api.shutdown_event.set()

    try:
        signal.signal(signal.SIGINT, _signal_shutdown)
        signal.signal(signal.SIGTERM, _signal_shutdown)
    except ValueError:  # pragma: no cover - not the main thread
        pass

    agents = []
    agent_threads = []
    if args.tail is not None:
        agents.append(FileTailAgent(args.tail))
    if args.replay_events is not None:
        from repro.traces.synthetic import generate_trace

        records = generate_trace(
            args.trace, args.replay_events, seed=args.seed
        )
        if args.pattern == "bursty":
            pattern = BurstyRate(base=args.rate, burst=args.rate * 5.0)
        elif args.pattern == "diurnal":
            pattern = DiurnalRate(trough=args.rate / 5.0, peak=args.rate)
        else:
            pattern = ConstantRate(args.rate)
        agents.append(ReplayAgent(records, pattern, pace=args.pace))

    with online, api:
        for agent in agents:
            thread = threading.Thread(
                target=agent.run, args=(online,), daemon=True
            )
            thread.start()
            agent_threads.append(thread)
        # the readiness line CI and scripts wait for — keep it stable
        print(f"serving on {api.url}", flush=True)
        print(
            f"  shards={args.shards} router={args.router} "
            f"replicate={args.replicate} queue={args.queue_capacity} "
            f"batch={args.batch_size} "
            f"sources={'tail,' if args.tail else ''}"
            f"{'replay' if args.replay_events else ''}",
            flush=True,
        )
        try:
            api.shutdown_event.wait()
        except KeyboardInterrupt:
            print("interrupted — shutting down", flush=True)
        for agent in agents:
            stop = getattr(agent, "stop", None)
            if stop is not None:
                stop()
        for thread in agent_threads:
            thread.join(timeout=10.0)
        drain = online.drain()
        if durability is not None:
            final = online.checkpoint()
            print(
                f"final snapshot at seq {final.seq} "
                f"({final.bytes_total} bytes in {final.elapsed_s:.2f}s)",
                flush=True,
            )
        stats = online.stats()
    if durability is not None:
        durability.close()
    counters = stats.pipeline
    print(
        f"drained {drain.n_consumed} queued records in "
        f"{drain.elapsed_s:.2f}s; lifetime accepted="
        f"{counters.n_accepted} echo_degraded={counters.n_echo_degraded} "
        f"deferred={counters.n_deferred} shed={counters.n_shed}; "
        f"mined {stats.service.n_observed} requests on "
        f"{stats.service.n_shards} shards "
        f"({stats.service.n_boundary_echoes} boundary echoes, "
        f"{stats.service.n_echoes_shed} echoes shed)",
        flush=True,
    )
    return 0


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--events", type=int, default=None, help="trace length (events)"
    )
    parser.add_argument(
        "--seeds",
        type=str,
        default=None,
        help="comma-separated seeds, e.g. 1,2,3",
    )


def _scale_kwargs(args: argparse.Namespace, experiment_id: str) -> dict:
    kwargs = {}
    if experiment_id == "table2":
        return kwargs  # the worked example takes no scale arguments
    if args.events is not None:
        kwargs["n_events"] = args.events
    if args.seeds is not None:
        kwargs["seeds"] = tuple(int(s) for s in args.seeds.split(",") if s)
    return kwargs


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        rows = [
            (exp.experiment_id, exp.paper_artifact, exp.description)
            for exp in EXPERIMENTS.values()
        ]
        print(format_table(("id", "paper artifact", "description"), rows))
        return 0
    if args.command == "run":
        exp = get_experiment(args.experiment)
        t0 = time.perf_counter()
        result = exp.run(**_scale_kwargs(args, exp.experiment_id))
        print(result.render())
        print(f"\n[{exp.experiment_id} finished in {time.perf_counter() - t0:.1f}s]")
        return 0
    if args.command == "service":
        return _run_service(args)
    if args.command == "workload":
        return _run_workload(args)
    if args.command == "storage":
        return _run_storage(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "all":
        for exp in EXPERIMENTS.values():
            t0 = time.perf_counter()
            result = exp.run(**_scale_kwargs(args, exp.experiment_id))
            print(result.render())
            print(f"\n[{exp.experiment_id} finished in {time.perf_counter() - t0:.1f}s]\n")
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
