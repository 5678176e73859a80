"""The ingest pipeline: bounded queue, admission control, consumers.

This is the backpressure seam between arrival-rate-driven sources
(:mod:`repro.online.agent`) and the sharded miner. Arrivals land in a
**bounded** in-process queue; a consumer thread drains them in batches
into :meth:`ShardedFarmer.ingest_stream` (the same ingest/barrier seam
batch ``mine()`` uses, so a fully-drained online run is bit-identical to
the batch schedule — property-tested in ``tests/online``).

Admission control (watermark-based, in degradation order)
---------------------------------------------------------

The queue depth at offer time picks one of four outcomes; the policy's
invariant is that **cross-shard echoes are shed before any owned
observe is**:

1. depth < ``echo_watermark`` · capacity → **ACCEPTED**: the record
   mines fully, boundary echo included.
2. depth ≥ echo watermark → **ACCEPTED_ECHO_SHED**: the record is
   admitted but flagged ``allow_echo=False`` — if it turns out to be a
   boundary request, the cross-shard echo (extra mining work on a
   *second* shard, and the least valuable edge under the echo-geometry
   caveats) is sacrificed first.
3. depth ≥ ``defer_watermark`` · capacity → **DEFERRED**: not enqueued.
   The source is asked to back off and retry — this is the lever that
   turns a bounded queue into backpressure instead of loss.
4. depth = capacity → **SHED**: the record is dropped and counted. By
   construction this cannot happen below the defer watermark, so owned
   observes are only ever lost once every softer lever is exhausted.

:class:`OnlineService` wraps the pipeline, a :class:`ShardedFarmer`, a
:class:`~repro.online.telemetry.Telemetry` plane and one re-entrant
service lock into the long-running object the admin API serves. The
lock story is coarse and honest: every touch of the sharded miner —
a consumer draining a batch, a ``predict``, an admin ``rebalance`` —
holds the same RLock, so queries are served *between* batches while
mining continues, and the existing single-writer invariants of the
service layer hold unchanged. This lock is the only synchronisation
the miner has: its shared vocabulary, vector store and Function-1
counter are plain objects.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.core.config import FarmerConfig
from repro.core.sorter import CorrelationSnapshot
from repro.durability.manager import DurabilityManager, DurabilityStats
from repro.durability.snapshot import SnapshotReport
from repro.errors import ConfigError, TraceFormatError
from repro.online.telemetry import LatencySummary, Telemetry
from repro.service.sharded import (
    AutoRebalanceReport,
    RebalanceReport,
    ShardedFarmer,
    StreamIngestReport,
)
from repro.service.stats import ServiceStats
from repro.traces.io import int64_overflow
from repro.traces.record import TraceRecord

__all__ = [
    "Admission",
    "AdmissionPolicy",
    "DrainReport",
    "IngestPipeline",
    "OnlineService",
    "OnlineStats",
    "PipelineCounters",
    "RecordSink",
]


class Admission(enum.Enum):
    """What admission control decided about one offered record."""

    ACCEPTED = "accepted"
    ACCEPTED_ECHO_SHED = "accepted_echo_shed"
    DEFERRED = "deferred"
    SHED = "shed"


class RecordSink(Protocol):
    """Anything an agent can offer records to."""

    def offer(self, record: TraceRecord) -> Admission:
        """Admit, degrade, defer or shed one record."""
        ...


@dataclass(frozen=True, slots=True)
class AdmissionPolicy:
    """The watermark configuration of the bounded ingest queue.

    Attributes:
        capacity: hard queue bound; an offer at this depth is shed.
        echo_watermark: fraction of capacity above which admitted
            records carry ``allow_echo=False`` (echoes shed first).
        defer_watermark: fraction of capacity above which offers are
            deferred (source-side backpressure) instead of enqueued.

    Invariant: ``0 < echo_watermark <= defer_watermark <= 1`` — the
    degradation ladder must engage in order (echoes, then deferral,
    then shedding at the hard bound).
    """

    capacity: int = 4096
    echo_watermark: float = 0.5
    defer_watermark: float = 0.9

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError("AdmissionPolicy needs capacity > 0")
        if not 0.0 < self.echo_watermark <= self.defer_watermark <= 1.0:
            raise ConfigError(
                "AdmissionPolicy needs 0 < echo_watermark <= "
                "defer_watermark <= 1 (the degradation ladder must "
                "engage in order)"
            )

    @property
    def echo_depth(self) -> int:
        """Queue depth at which echo shedding starts."""
        return int(self.capacity * self.echo_watermark)

    @property
    def defer_depth(self) -> int:
        """Queue depth at which offers start deferring."""
        return int(self.capacity * self.defer_watermark)


@dataclass(frozen=True, slots=True)
class PipelineCounters:
    """Lifetime admission/consumption accounting of one pipeline."""

    n_offered: int
    n_accepted: int
    n_echo_degraded: int
    n_deferred: int
    n_shed: int
    n_consumed: int
    n_batches: int


@dataclass(frozen=True, slots=True)
class DrainReport:
    """What one :meth:`OnlineService.drain` barrier flushed."""

    n_consumed: int  # records drained from the queue by this barrier
    n_batches: int  # consumer batches the barrier took
    elapsed_s: float


class IngestPipeline:
    """Bounded queue + watermark admission + batch draining.

    Thread-safe: agents offer from any number of threads; one consumer
    (the :class:`OnlineService` worker, or a test calling
    :meth:`drain_batch` directly) pops batches. The queue holds
    ``(record, allow_echo)`` pairs — the admission decision is taken at
    offer time, when the depth that justified it was observed, not at
    consumption time when the pressure may already have passed.
    """

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        *,
        batch_size: int = 256,
        telemetry: Telemetry | None = None,
        journal: Callable[[TraceRecord, bool], int] | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ConfigError("IngestPipeline needs batch_size > 0")
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.batch_size = batch_size
        self.telemetry = telemetry
        # write-ahead hook: called with (record, allow_echo) for every
        # *accepted* record, under the pipeline lock, BEFORE the record
        # is enqueued — the mined state is therefore always a prefix of
        # the journal, so a crash at any point replays every record that
        # was acknowledged as accepted and nothing that was not
        self.journal = journal
        self._queue: deque[tuple[TraceRecord, bool]] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._n_offered = 0
        self._n_accepted = 0
        self._n_echo_degraded = 0
        self._n_deferred = 0
        self._n_shed = 0
        self._n_consumed = 0
        self._n_batches = 0

    # -- producer side -------------------------------------------------

    def offer(self, record: TraceRecord) -> Admission:
        """Admit, degrade, defer or shed one record (see the module
        docstring for the watermark ladder).

        Raises:
            TraceFormatError: for a record with an integer field outside
                int64 (the miner's graph arrays cannot hold it), before
                anything is queued or journaled; it counts as offered.
        """
        policy = self.policy
        with self._lock:
            self._n_offered += 1
            overflow = int64_overflow(record)
            if overflow is not None:
                raise TraceFormatError(f"refusing {record!r}: {overflow}")
            depth = len(self._queue)
            if depth >= policy.capacity:
                self._n_shed += 1
                result = Admission.SHED
            elif depth >= policy.defer_depth:
                self._n_deferred += 1
                result = Admission.DEFERRED
            else:
                allow_echo = depth < policy.echo_depth
                if self.journal is not None:
                    self.journal(record, allow_echo)
                self._queue.append((record, allow_echo))
                self._n_accepted += 1
                if not allow_echo:
                    self._n_echo_degraded += 1
                    result = Admission.ACCEPTED_ECHO_SHED
                else:
                    result = Admission.ACCEPTED
                self._not_empty.notify()
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.incr(f"admission.{result.value}")
        return result

    # -- consumer side -------------------------------------------------

    def pop_batch(
        self, timeout_s: float | None = None
    ) -> list[tuple[TraceRecord, bool]]:
        """Pop up to ``batch_size`` queued items (blocking up to
        ``timeout_s`` for the first; empty list on timeout/no wait)."""
        with self._not_empty:
            if not self._queue and timeout_s:
                self._not_empty.wait(timeout_s)
            take = min(self.batch_size, len(self._queue))
            batch = [self._queue.popleft() for _ in range(take)]
            if batch:
                self._n_consumed += len(batch)
                self._n_batches += 1
            return batch

    @property
    def depth(self) -> int:
        """Current queue depth."""
        with self._lock:
            return len(self._queue)

    def counters(self) -> PipelineCounters:
        """Lifetime admission/consumption counters (consistent read)."""
        with self._lock:
            return PipelineCounters(
                n_offered=self._n_offered,
                n_accepted=self._n_accepted,
                n_echo_degraded=self._n_echo_degraded,
                n_deferred=self._n_deferred,
                n_shed=self._n_shed,
                n_consumed=self._n_consumed,
                n_batches=self._n_batches,
            )


@dataclass(frozen=True, slots=True)
class OnlineStats:
    """The operator's one-call view of a running :class:`OnlineService`.

    Attributes:
        service: the underlying :class:`ServiceStats` rollup (includes
            per-destination echo drops and shed counts).
        queue_depth: ingest-queue depth at the time of the call.
        pipeline: lifetime admission/consumption counters.
        endpoint_latency: per-endpoint latency summaries (p50/p95/p99
            from the fixed-bucket histograms).
        uptime_s: seconds since the service started.
        durability: WAL/snapshot/recovery rollup when the service runs
            with a data directory (None on a memory-only service).
    """

    service: ServiceStats
    queue_depth: int
    pipeline: PipelineCounters
    endpoint_latency: dict[str, LatencySummary]
    uptime_s: float = 0.0
    durability: DurabilityStats | None = None


class OnlineService:
    """A continuously-running FARMER: queue in front, miner behind,
    telemetry throughout.

    Construction wires a :class:`ShardedFarmer` (or adopts one passed
    in), an :class:`IngestPipeline` and a :class:`Telemetry` plane; the
    consumer thread starts on :meth:`start` (or context-manager entry)
    and drains admitted records into the shards in batches. Every
    public query/admin method is timed into the per-endpoint latency
    histograms — the API layer serves those numbers; it does not
    measure its own HTTP overhead.

    Equivalence contract (property-tested): feed any trace through
    :meth:`offer` with no admission degradation, then :meth:`drain`;
    ``predict``/``correlators`` answers are bit-identical to a batch
    ``mine()`` of the same records on an identically-configured
    service — online arrival changes *when* work happens, never what is
    mined. Under overload the contract degrades in the documented
    order: echo-shed records lose only their cross-shard echo; owned
    observes are lost only at the hard queue bound.
    """

    def __init__(
        self,
        config: FarmerConfig | None = None,
        *,
        service: ShardedFarmer | None = None,
        policy: AdmissionPolicy | None = None,
        batch_size: int = 256,
        telemetry: Telemetry | None = None,
        load_sample_every: int = 4,
        durability: DurabilityManager | None = None,
        snapshot_interval: int = 0,
    ) -> None:
        if load_sample_every <= 0:
            raise ConfigError("OnlineService needs load_sample_every > 0")
        if snapshot_interval < 0:
            raise ConfigError("OnlineService needs snapshot_interval >= 0")
        if snapshot_interval > 0 and durability is None:
            raise ConfigError(
                "snapshot_interval needs a durability manager (the "
                "interval schedules checkpoints into its data directory)"
            )
        self.service = (
            service if service is not None else ShardedFarmer(config)
        )
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.durability = durability
        self.snapshot_interval = snapshot_interval
        if durability is not None and durability.telemetry is None:
            durability.telemetry = self.telemetry
        self.pipeline = IngestPipeline(
            policy,
            batch_size=batch_size,
            telemetry=self.telemetry,
            journal=(
                durability.log_accepted if durability is not None else None
            ),
        )
        self.load_sample_every = load_sample_every
        # one coarse RLock serialises every touch of the sharded miner:
        # consumer batches, queries, admin operations. Queries interleave
        # between batches; the service layer's single-writer story holds.
        self._service_lock = threading.RLock()
        # serialises pop+consume as one unit, so drain()'s empty pop
        # proves no batch is in flight on the consumer thread
        self._ingest_serial = threading.Lock()
        self._consumer: threading.Thread | None = None
        self._running = threading.Event()
        self._started_at = time.perf_counter()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "OnlineService":
        """Start the consumer thread (idempotent)."""
        if self._consumer is not None and self._consumer.is_alive():
            return self
        self._running.set()
        self._consumer = threading.Thread(
            target=self._consume_loop, name="farmer-ingest", daemon=True
        )
        self._started_at = time.perf_counter()
        self._consumer.start()
        return self

    def stop(self) -> None:
        """Stop the consumer thread after its current batch (idempotent;
        queued records stay queued — :meth:`drain` first for a clean
        barrier)."""
        self._running.clear()
        consumer = self._consumer
        if consumer is not None:
            consumer.join(timeout=10.0)
            self._consumer = None

    def __enter__(self) -> "OnlineService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the consumer thread is live."""
        return self._consumer is not None and self._consumer.is_alive()

    # -- ingestion -----------------------------------------------------

    def offer(self, record: TraceRecord) -> Admission:
        """The agents' entry point (see :class:`IngestPipeline`)."""
        return self.pipeline.offer(record)

    def _consume_batch(
        self, batch: list[tuple[TraceRecord, bool]]
    ) -> StreamIngestReport:
        """Fold one popped batch into the shards, with telemetry."""
        start = time.perf_counter()
        with self._service_lock:
            report = self.service.ingest_stream(batch)
        self.telemetry.observe_latency(
            "ingest_batch", time.perf_counter() - start
        )
        tick = self.service.n_observed
        self.telemetry.sample("queue_depth", tick, self.pipeline.depth)
        if report.n_echoes_shed:
            self.telemetry.incr("ingest.echoes_shed", report.n_echoes_shed)
        if report.n_dropped_failed:
            self.telemetry.incr(
                "ingest.dropped_failed", report.n_dropped_failed
            )
        n_batches = self.pipeline.counters().n_batches
        if n_batches % self.load_sample_every == 0:
            with self._service_lock:
                loads = self.service.shard_loads()
            for index, load in enumerate(loads):
                self.telemetry.sample(f"shard_load.{index}", tick, load)
        return report

    def _consume_loop(self) -> None:
        while self._running.is_set():
            with self._ingest_serial:
                batch = self.pipeline.pop_batch(timeout_s=0.05)
                if batch:
                    self._consume_batch(batch)
            durability = self.durability
            if (
                durability is not None
                and self.snapshot_interval > 0
                and self.consumed_seq - durability.last_snapshot_seq
                >= self.snapshot_interval
            ):
                self.checkpoint()

    # -- durability ----------------------------------------------------

    @property
    def consumed_seq(self) -> int:
        """The service's position in the accepted stream: records mined
        before any crash (durable base) plus records consumed since."""
        base = (
            self.durability.base_consumed
            if self.durability is not None
            else 0
        )
        return base + self.pipeline.counters().n_consumed

    def checkpoint(self) -> SnapshotReport:
        """Write a durable snapshot at a full drain barrier.

        Rides the same serial-lock story as :meth:`drain`: everything
        queued is consumed, and the snapshot captures the service at an
        exact accepted-stream sequence — offers landing after the
        barrier go to the WAL tail the snapshot's rotation starts.
        Ranking stays lazy (the snapshot is a faithful state capture,
        not a rank), so a restore never diverges from the lazy schedule.
        """
        durability = self.durability
        if durability is None:
            raise ConfigError(
                "checkpoint() needs a durability manager — construct "
                "OnlineService(durability=...) or serve with --data-dir"
            )
        start = time.perf_counter()
        with self._ingest_serial:
            while True:
                batch = self.pipeline.pop_batch(timeout_s=None)
                if not batch:
                    break
                self._consume_batch(batch)
            with self._service_lock:
                report = durability.checkpoint(
                    self.service, self.consumed_seq
                )
        self.telemetry.observe_latency(
            "checkpoint", time.perf_counter() - start
        )
        return report

    def drain(self) -> DrainReport:
        """The full barrier: consume everything queued.

        After ``drain()`` every accepted record has been mined, and
        queries answer exactly as they would after a batch ``mine()`` of
        the accepted stream — the equivalence the property tests pin.
        Ranking itself stays lazy: a drain is flow control, not a query,
        and an eager mid-stream re-rank would *freeze* each list at
        drain-time vector state (clearing its dirty mark), silently
        diverging from the batch schedule once more records arrive. The
        first query of each list pays its deferred rank instead. Safe
        with or without the consumer thread running: pop-and-consume is
        serialised, so an empty pop under the serial lock proves no
        batch is in flight on the consumer thread when it returns.
        """
        start = time.perf_counter()
        consumed = 0
        batches = 0
        while True:
            with self._ingest_serial:
                batch = self.pipeline.pop_batch(timeout_s=None)
                if not batch:
                    break
                self._consume_batch(batch)
            consumed += len(batch)
            batches += 1
        report = DrainReport(
            n_consumed=consumed,
            n_batches=batches,
            elapsed_s=time.perf_counter() - start,
        )
        self.telemetry.incr("drains")
        return report

    # -- queries (timed per endpoint) ----------------------------------

    def _timed(self, endpoint: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            with self._service_lock:
                return fn(*args, **kwargs)
        finally:
            self.telemetry.observe_latency(
                endpoint, time.perf_counter() - start
            )

    def predict(self, fid: int, k: int | None = None) -> list[int]:
        """Prefetch candidates for ``fid`` from its owner shard (the
        query reflects everything already *consumed*; records still
        queued are not yet part of the answer)."""
        return self._timed("predict", self.service.predict, fid, k)

    def correlators(self, fid: int):
        """Valid correlates of ``fid`` from its owner shard."""
        return self._timed("correlators", self.service.correlators, fid)

    def snapshot(self) -> CorrelationSnapshot:
        """Aggregate Correlator-List statistics over owned lists."""
        return self._timed("snapshot", self.service.snapshot)

    def stats(self) -> OnlineStats:
        """The full operational rollup (see :class:`OnlineStats`)."""
        start = time.perf_counter()
        with self._service_lock:
            service_stats = self.service.stats()
        self.telemetry.observe_latency("stats", time.perf_counter() - start)
        return OnlineStats(
            service=service_stats,
            queue_depth=self.pipeline.depth,
            pipeline=self.pipeline.counters(),
            endpoint_latency=self.telemetry.endpoint_summaries(),
            uptime_s=time.perf_counter() - self._started_at,
            durability=(
                self.durability.stats()
                if self.durability is not None
                else None
            ),
        )

    # -- admin (timed per endpoint) ------------------------------------

    def fail_shard(self, index: int) -> None:
        """Kill shard ``index``'s private state (see ``ShardedFarmer``).
        The consumer keeps draining: the failed partition's records are
        dropped-and-counted by ``ingest_stream`` until promotion."""
        self._timed("fail_shard", self.service.fail_shard, index)

    def promote_standby(self, index: int):
        """Promote shard ``index``'s warm standby back into service."""
        return self._timed(
            "promote_standby", self.service.promote_standby, index
        )

    def rebalance(self, n_shards: int | None = None, **kwargs) -> RebalanceReport:
        """Install a new topology (see :meth:`ShardedFarmer.rebalance`)."""
        return self._timed(
            "rebalance", self.service.rebalance, n_shards, **kwargs
        )

    def auto_rebalance(self, **kwargs) -> AutoRebalanceReport:
        """Load-aware rebalance (see :meth:`ShardedFarmer.auto_rebalance`)."""
        return self._timed(
            "auto_rebalance", self.service.auto_rebalance, **kwargs
        )
