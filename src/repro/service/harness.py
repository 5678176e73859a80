"""Replay harness: single-miner vs sharded mining throughput.

Two measurement modes:

* **Modeled** (the original mode): each shard replays its substream
  (owned records through the full pipeline, boundary echoes through the
  echo path) sequentially and is timed separately. In a deployment the
  shards run on separate cores/processes — HUSt pairs one with each
  metadata server — so the modeled service-level wall time is the
  slowest shard (the critical path), and

      aggregate throughput = accepted records / critical path.

* **Wall-clock** (:func:`compare_parallel_mine`): the shards actually
  run concurrently on a
  :class:`~repro.service.runner.ParallelShardRunner` (thread or process
  backend) and the measured quantity is real elapsed time — no
  critical-path arithmetic. Under CPython's GIL the thread backend
  mostly exercises the locking story; the process backend parallelises
  the Function-1-heavy flush phase for real.

The service benchmark and the ``service`` CLI subcommand report both.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.service.runner import ParallelMineReport, ParallelShardRunner
from repro.service.sharded import ShardedFarmer
from repro.traces.record import TraceRecord

__all__ = [
    "ShardTiming",
    "ServiceComparison",
    "WallClockComparison",
    "replay_single",
    "replay_sharded",
    "compare_single_vs_sharded",
    "compare_parallel_mine",
]


@dataclass(frozen=True, slots=True)
class ShardTiming:
    """One shard's replay measurement."""

    shard: int
    n_records: int  # substream length: owned records + absorbed echoes
    elapsed_s: float

    @property
    def throughput(self) -> float:
        """Substream records per second (0.0 for an idle shard)."""
        return self.n_records / self.elapsed_s if self.elapsed_s > 0 else 0.0


@dataclass(frozen=True, slots=True)
class ServiceComparison:
    """Single-miner baseline vs one sharded configuration."""

    n_records: int  # service-level accepted records (echoes not counted)
    single_elapsed_s: float
    timings: tuple[ShardTiming, ...]
    n_boundary_echoes: int
    memory_bytes: int

    @property
    def n_shards(self) -> int:
        """Shard count of the measured configuration."""
        return len(self.timings)

    @property
    def critical_path_s(self) -> float:
        """Modeled service wall time: the slowest shard's replay."""
        return max(t.elapsed_s for t in self.timings)

    @property
    def single_throughput(self) -> float:
        """Baseline requests per second."""
        if self.single_elapsed_s <= 0:
            return 0.0
        return self.n_records / self.single_elapsed_s

    @property
    def aggregate_throughput(self) -> float:
        """Modeled service requests per second (shards in parallel)."""
        crit = self.critical_path_s
        return self.n_records / crit if crit > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Aggregate over baseline throughput."""
        single = self.single_throughput
        return self.aggregate_throughput / single if single > 0 else 0.0


def replay_single(
    farmer: Farmer, records: Sequence[TraceRecord], predict: bool = True
) -> float:
    """Drive a stand-alone Farmer (observe, optionally the FPA predict
    per request, and the final flush); returns elapsed seconds."""
    start = time.perf_counter()
    for record in records:
        farmer.observe(record)
        if predict:
            farmer.predict(record.fid)
    farmer.snapshot()
    return time.perf_counter() - start


def replay_sharded(
    service: ShardedFarmer, records: Sequence[TraceRecord], predict: bool = True
) -> tuple[ShardTiming, ...]:
    """Replay each shard's substream separately, timing per shard.

    Owned records run the full pipeline (plus the FPA predict when
    ``predict``); boundary echoes run the echo path, exactly as the live
    ``ShardedFarmer.observe`` schedule would. Each shard ends with its
    owned-list flush, so deferred re-rank work is inside the timing.
    The service's stream accounting (``n_observed`` / boundary echoes /
    the boundary-detection seed) is kept consistent, so ``stats()``
    after a replay reports the same totals a live ``observe`` loop
    would.
    """
    # intra-package use of the service's substream rule and counters:
    # the harness replays *for* the service, it is not a foreign caller
    subs, accepted, prev, last_fid = service._partition(
        records, service._prev_owner
    )
    timings = []
    for index, (shard, sub) in enumerate(zip(service.shards, subs)):
        start = time.perf_counter()
        for record, is_echo in sub:
            if is_echo:
                shard.observe_echo(record)
            else:
                shard.observe(record)
                if predict:
                    shard.predict(record.fid)
        service.flush_shard(index)
        timings.append(
            ShardTiming(
                shard=index,
                n_records=len(sub),
                elapsed_s=time.perf_counter() - start,
            )
        )
    service._absorb_stream_state(
        accepted, sum(len(s) for s in subs), prev, last_fid
    )
    return tuple(timings)


def compare_single_vs_sharded(
    records: Sequence[TraceRecord],
    config: FarmerConfig,
    predict: bool = True,
    single_elapsed_s: float | None = None,
) -> ServiceComparison:
    """Measure one sharded configuration against the single-miner
    baseline (pass ``single_elapsed_s`` to reuse a measured baseline
    across several shard counts)."""
    if single_elapsed_s is None:
        single_elapsed_s = replay_single(
            Farmer(config.with_(n_shards=1)), records, predict=predict
        )
    service = ShardedFarmer(config)
    timings = replay_sharded(service, records, predict=predict)
    return ServiceComparison(
        n_records=service.n_observed,
        single_elapsed_s=single_elapsed_s,
        timings=timings,
        n_boundary_echoes=service.n_boundary_echoes,
        memory_bytes=service.memory_bytes(),
    )


@dataclass(frozen=True, slots=True)
class WallClockComparison:
    """Measured (not modeled) batch-mine timings: one Farmer vs the
    sequential sharded service vs executed-parallel runs."""

    n_records: int
    single_mine_s: float  # plain Farmer.mine on one thread
    sequential_mine_s: float  # ShardedFarmer.mine on one thread
    runs: tuple[ParallelMineReport, ...]

    def speedup_vs_sequential(self, report: ParallelMineReport) -> float:
        """Wall-clock speedup of one parallel run over the sequential
        sharded ``mine`` (> 1.0 means the executor genuinely helped)."""
        return (
            self.sequential_mine_s / report.elapsed_s
            if report.elapsed_s > 0
            else 0.0
        )


def compare_parallel_mine(
    records: Sequence[TraceRecord],
    config: FarmerConfig,
    n_workers: int | None = None,
    backends: Sequence[str] = ("thread", "process"),
    single_mine_s: float | None = None,
) -> WallClockComparison:
    """Wall-clock mode: time ``mine`` over ``records`` as (a) one plain
    Farmer, (b) the sequential ``ShardedFarmer``, and (c) one
    executed-parallel run per requested backend, each on a fresh
    service instance so every run mines the same cold state. Pass
    ``single_mine_s`` to reuse a measured single-miner baseline across
    several shard counts (it does not depend on ``n_shards``)."""
    if single_mine_s is None:
        start = time.perf_counter()
        Farmer(config.with_(n_shards=1)).mine(records)
        single_mine_s = time.perf_counter() - start
    start = time.perf_counter()
    sequential = ShardedFarmer(config).mine(records)
    sequential_s = time.perf_counter() - start
    runs = []
    for backend in backends:
        with ParallelShardRunner(
            ShardedFarmer(config), n_workers=n_workers, backend=backend
        ) as runner:
            runs.append(runner.mine(records))
    return WallClockComparison(
        n_records=sequential.n_observed,
        single_mine_s=single_mine_s,
        sequential_mine_s=sequential_s,
        runs=tuple(runs),
    )
