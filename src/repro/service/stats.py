"""Aggregated accounting for the sharded mining service.

One report rolls the per-shard :class:`~repro.core.farmer.FarmerStats`
and the shared Function-1 count into service-level totals, so
experiments and benchmarks read a single object instead of poking N
shards (and the shared vector store / vocabulary are counted exactly
once in the memory total, not once per shard).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cominer import RerankStats
from repro.core.farmer import FarmerStats

__all__ = [
    "ServiceStats",
    "combine_rerank_stats",
    "load_signal",
]


def load_signal(n_observed: int, entries_scanned: int) -> float:
    """The per-shard load metric fed into load-aware rebalancing:
    requests absorbed (owned + echoes) plus re-rank entries scanned.

    One definition for both readers — ``ShardedFarmer.shard_loads``
    (the live decision input of ``auto_rebalance``) and
    ``ServiceStats.shard_loads`` (the reported signal) — so the two can
    never silently diverge.
    """
    return float(n_observed + entries_scanned)


def combine_rerank_stats(stats: list[RerankStats]) -> RerankStats:
    """Sum re-rank op counters across shards (each shard's counters are
    private, so the sum is the service-level op count)."""
    return RerankStats(
        n_reevaluations=sum(s.n_reevaluations for s in stats),
        entries_scanned=sum(s.entries_scanned for s in stats),
        entries_skipped_unchanged=sum(
            s.entries_skipped_unchanged for s in stats
        ),
        insort_ops=sum(s.insort_ops for s in stats),
    )


@dataclass(frozen=True, slots=True)
class ServiceStats:
    """Service-level rollup of a :class:`~repro.service.ShardedFarmer`.

    Attributes:
        n_shards: number of miner shards.
        n_observed: requests the *service* accepted (each counted once,
            even when a boundary request was echoed to a second shard).
        n_boundary_echoes: boundary requests additionally observed by
            the predecessor's shard (0 under strict partition isolation
            or when every adjacent pair was shard-local).
        shards: per-shard :class:`FarmerStats`; a shard's ``n_observed``
            includes the echoes it absorbed, so their sum can exceed the
            service total.
        f1_evaluations: Function-1 evaluations across every shard and
            standby (one shared counter).
        memory_bytes: total footprint with shared components (vocabulary,
            vector store) counted exactly once.
        n_echo_flushes: echo-queue drain operations performed (each
            drain delivers one shard's whole queue; the batching win is
            echoes amortized per drain, not fewer echoes).
        n_rebalances: topology changes applied via ``rebalance()``.
        n_migrated_fids: fids whose graph node + ranked list were
            shipped between shards across all rebalances.
        n_echoes_dropped: boundary echoes lost to failed destinations
            (in-flight at failure time or enqueued while down).
        n_failovers: standby promotions performed.
        n_standby_syncs: standby sync barriers run (0 with replication
            disabled).
        echo_queue_depths: per-destination-shard boundary-echo queue
            depth **as the stats() caller found it** (the rollup drains
            the queues, so this is captured before the drain). This is
            the online backpressure policy's admission input: a
            destination that stopped draining shows up here before
            anything overflows.
        echo_drops_by_shard: per-destination-shard count of boundary
            echoes lost to that shard's failure; sums to
            ``n_echoes_dropped`` over the shard lifetime.
        n_echoes_shed: boundary echoes deliberately suppressed by
            overload shedding (records folded through
            ``ShardedFarmer.ingest_stream`` with ``allow_echo=False``
            that turned out to be boundary requests) — degradation the
            service *chose*, as opposed to ``n_echoes_dropped`` which
            it suffered.
    """

    n_shards: int
    n_observed: int
    n_boundary_echoes: int
    shards: tuple[FarmerStats, ...]
    f1_evaluations: int
    memory_bytes: int
    n_echo_flushes: int = 0
    n_rebalances: int = 0
    n_migrated_fids: int = 0
    n_echoes_dropped: int = 0
    n_failovers: int = 0
    n_standby_syncs: int = 0
    echo_queue_depths: tuple[int, ...] = ()
    echo_drops_by_shard: tuple[int, ...] = ()
    n_echoes_shed: int = 0

    @property
    def memory_megabytes(self) -> float:
        """Footprint in MB (10^6 bytes, as Table 4 reports)."""
        return self.memory_bytes / 1e6

    @property
    def n_files(self) -> int:
        """Graph nodes summed over shards (boundary files, present on
        two shards, count twice — the real resident state)."""
        return sum(s.n_files for s in self.shards)

    @property
    def n_edges(self) -> int:
        """Directed graph edges summed over shards."""
        return sum(s.n_edges for s in self.shards)

    @property
    def n_lists(self) -> int:
        """Correlator Lists summed over shards (includes the partial
        halo lists boundary echoes leave on neighbour shards — resident
        state, not the owner-filtered view ``snapshot()`` reports)."""
        return sum(s.n_lists for s in self.shards)

    @property
    def n_entries(self) -> int:
        """Correlator-List entries summed over shards (same scope as
        ``n_lists``)."""
        return sum(s.n_entries for s in self.shards)

    @property
    def rerank(self) -> RerankStats:
        """Service-level re-rank op counters (shard counters summed)."""
        return combine_rerank_stats([s.rerank for s in self.shards])

    @property
    def shard_loads(self) -> tuple[float, ...]:
        """Per-shard load signal (requests absorbed + re-rank entries
        scanned) — what ``ShardedFarmer.auto_rebalance`` feeds into the
        consistent-hash ring weights."""
        return tuple(
            load_signal(s.n_observed, s.rerank.entries_scanned)
            for s in self.shards
        )
