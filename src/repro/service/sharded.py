"""The sharded FARMER mining service.

The paper's HUSt deployment hash-partitions metadata across metadata
servers, but a single :class:`~repro.core.farmer.Farmer` still funnels
every server through one miner. :class:`ShardedFarmer` removes that
serial bottleneck: it partitions the fid namespace across ``n_shards``
independent Farmer shards behind a deterministic
:mod:`~repro.service.router`, so each shard mines only its own files
(one shard per metadata server in the cluster simulator). All shards
run in one process on the caller's thread.

Shared state — and why sharing is safe
--------------------------------------

Two components are deliberately *not* sharded:

* the **vocabulary** (interned attribute tokens) — ids must agree across
  shards for vectors to be comparable;
* the **vector store** — a file's semantic vector is a property of the
  namespace, not of a partition, so one store holds the truth.

Every shard also reports into one shared Function-1 evaluation counter
(:class:`~repro.core.cominer.F1Counter`, ``ShardedFarmer.sim_cache``),
so the service-wide count needs no summing. The stores are plain
objects with no locks: a ``ShardedFarmer`` is single-threaded, and the
online plane (:class:`~repro.online.pipeline.OnlineService`) serialises
every touch of it under one service lock.

Cross-shard edges (``cross_shard_edges``) and boundary echoes
-------------------------------------------------------------

Partitioning the stream would silently drop correlations that straddle a
shard boundary. When the immediate predecessor of a request was routed
to a different shard (a *boundary request*), the request is observed by
**both** owner shards: its own (the full pipeline) and the
predecessor's, whose sliding window still holds the preceding files, so
the ``pred → fid`` edges are mined where ``pred``'s Correlator List
lives. Scope: adjacent (distance-1) cross-shard pairs are always
captured; deeper window pairs are captured only when the predecessor's
shard also observed the intervening requests, and the predecessor
shard's window distances are compressed (it never saw the skipped
foreign requests), so LDA weights on echoed edges are upper bounds.
Set ``cross_shard_edges=False`` for strict partition isolation — each
shard then sees exactly its routed substream, and the service is
bit-for-bit a set of independent per-shard Farmers.

``observe`` delivers a boundary echo at once, before it returns: the
predecessor's shard runs the graph-only :meth:`Farmer.observe_echo`.
The batch entry points (``mine``, ``ingest_stream``) place each echo
inline in the destination's substream, which is the same order. An
echo whose destination shard is failed is dropped and counted.

Equivalence scope: with ``n_shards=1`` every entry point is bit-for-bit
identical to a plain Farmer (property-tested on a 20k-record trace).

Rebalancing (``rebalance``)
---------------------------

The router is swappable at runtime: :meth:`ShardedFarmer.rebalance`
installs a new topology (different shard count, different policy, or
new consistent-hash weights) and migrates **only the fids whose owner
changed** — each moved fid's graph node and freshly-ranked Correlator
List ship from the old owner to the new one
(:meth:`~repro.core.cominer.CoMiner.flush_nodes_report` /
``adopt_migrated``); nothing is re-mined. The shared vocabulary, vector
store and Function-1 counter are namespace-global and never move.
Pre-rebalance query results are preserved verbatim (the migrated list
is the list the old owner would have served), and with ``window=1`` —
the regime where boundary echoes capture the cross-shard edge set
exactly — a mined-then-rebalanced service is bit-for-bit identical to a
service freshly mined at the new topology (both property-tested).

Replication and failover (``fail_shard`` / ``promote_standby``)
---------------------------------------------------------------

With ``FarmerConfig.replication=True`` the service keeps one warm
standby per primary shard (:mod:`repro.service.replication`), synced
through the same state-shipping seam a rebalance migration uses, every
``standby_sync_interval`` accepted requests (and on demand via
:meth:`sync_standbys`). :meth:`ShardedFarmer.fail_shard` simulates the
loss of a shard's private mining state — its graph and lists are gone;
the shared vocabulary/vector store/Function-1 counter are
namespace-global and survive by construction. While failed,
requests and queries routed to that shard raise
:class:`~repro.errors.ShardFailedError`; every other partition keeps
serving. :meth:`ShardedFarmer.promote_standby` puts the standby in
service and reseeds a fresh standby behind it. The promoted shard
serves, bit for bit, what a never-failed service fed the stream up to
the **last sync barrier** would serve for its fids (property-tested
with randomized kill points, double failures and
fail-during-``mine``); the records accepted since that barrier are the
partition's loss window.

Load-aware rebalancing (``auto_rebalance``)
-------------------------------------------

:meth:`ShardedFarmer.auto_rebalance` closes the loop the manual
``rebalance(weights=...)`` hook left open: it reads each shard's
observed load (requests absorbed + re-rank entries scanned, the same
counters ``ServiceStats`` reports), converts it into consistent-hash
ring weights — monotone *decreasing* in load, so hot shards shed
namespace and idle shards absorb it — and installs them through
:meth:`ShardedFarmer.rebalance` (queries are invariant, exactly as for
any rebalance).
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.cominer import F1Counter
from repro.core.config import FarmerConfig
from repro.core.extractor import Extractor
from repro.core.farmer import Farmer
from repro.core.sorter import CorrelationSnapshot
from repro.core.vector_store import VectorStore
from repro.errors import ConfigError, ReplicationError, ShardFailedError
from repro.graph.correlator_list import CorrelatorEntry
from repro.service.replication import (
    FailoverReport,
    ShardReplicator,
    StandbySyncReport,
)
from repro.service.router import ShardRouter, make_router
from repro.service.stats import ServiceStats, load_signal
from repro.traces.record import TraceRecord
from repro.vsm.vocabulary import Vocabulary

__all__ = [
    "ShardedFarmer",
    "RebalanceReport",
    "AutoRebalanceReport",
    "StreamIngestReport",
]


@dataclass(frozen=True, slots=True)
class RebalanceReport:
    """What one :meth:`ShardedFarmer.rebalance` call did."""

    n_shards_before: int
    n_shards_after: int
    policy: str
    n_owned: int  # fids owned across all shards when the call started
    n_migrated: int  # fids whose owner changed (node + list shipped)
    elapsed_s: float

    @property
    def moved_fraction(self) -> float:
        """Migrated share of the namespace (consistent hashing's point:
        ~1/n per added shard instead of modulo's near-total reshuffle)."""
        return self.n_migrated / self.n_owned if self.n_owned else 0.0


@dataclass(frozen=True, slots=True)
class AutoRebalanceReport:
    """What one :meth:`ShardedFarmer.auto_rebalance` call decided and did.

    Attributes:
        loads: per-shard load observed **since the previous rebalance
            decision** (requests absorbed + re-rank entries scanned —
            the same signal ``ServiceStats.shard_loads`` reports
            cumulatively). The windowing is the decision contract:
            every rebalance resets the attribution window, so repeated
            decisions under steady load converge instead of being
            pinned by historic skew (see :meth:`ShardedFarmer.
            auto_rebalance`).
        weights: the consistent-hash ring weights installed (monotone
            decreasing in ``loads``, clamped to the configured band).
        rebalance: the underlying migration's report.
    """

    loads: tuple[float, ...]
    weights: tuple[float, ...]
    rebalance: RebalanceReport


@dataclass(frozen=True, slots=True)
class StreamIngestReport:
    """What one :meth:`ShardedFarmer.ingest_stream` batch folded in.

    Attributes:
        n_accepted: records ingested by their owner shards (op-filtered
            records and records owned by failed shards are excluded).
        n_echoes_placed: boundary echoes delivered to the predecessor's
            shard within this batch.
        n_echoes_shed: boundary echoes suppressed because the record was
            admitted with ``allow_echo=False`` (the overload policy's
            graceful-degradation lever: echoes are extra mining work on
            a second shard, so they are the first thing to go).
        n_dropped_failed: owned records dropped because their owner
            shard is failed (the online path degrades instead of
            raising; the batch entry points raise ``ShardFailedError``).
    """

    n_accepted: int
    n_echoes_placed: int
    n_echoes_shed: int
    n_dropped_failed: int


class ShardedFarmer:
    """N namespace-partitioned Farmer shards behind one façade.

    Drop-in for :class:`Farmer` in every consumer that goes through the
    public entry points (``observe`` / ``mine`` / ``predict`` /
    ``correlators`` / ``snapshot`` / ``memory_bytes``); ``stats()``
    returns the richer :class:`~repro.service.stats.ServiceStats`.
    """

    def __init__(
        self, config: FarmerConfig | None = None, router: ShardRouter | None = None
    ) -> None:
        self.config = config if config is not None else FarmerConfig()
        n = self.config.n_shards
        if router is None:
            router = make_router(
                self.config.shard_policy,
                n,
                virtual_nodes=self.config.router_virtual_nodes,
                seed=self.config.router_seed,
            )
        elif router.n_shards != n:
            raise ConfigError(
                f"router has {router.n_shards} shards, config wants {n}"
            )
        self.router = router
        # namespace-global stores shared by every shard by identity
        self.vocabulary = Vocabulary()
        self.extractor = Extractor(self.config.attributes, self.vocabulary)
        self.vector_store = VectorStore(self.config, self.extractor)
        self.sim_cache = F1Counter()
        self.shards: tuple[Farmer, ...] = tuple(
            Farmer(
                self.config,
                vocabulary=self.vocabulary,
                vector_store=self.vector_store,
                sim_cache=self.sim_cache,
            )
            for _ in range(n)
        )
        self._prev_owner: int | None = None
        self._prev_fid: int | None = None
        self._n_observed = 0
        self._n_boundary_echoes = 0
        self._n_rebalances = 0
        self._n_migrated_fids = 0
        # shard indexes whose private state is lost, awaiting promotion
        self._failed: set[int] = set()
        self._n_echoes_dropped = 0
        # echoes lost to each failed destination
        self._echo_drops_by_dest: list[int] = [0] * n
        self._n_echoes_shed = 0
        # load-attribution marks: raw load signals at the last rebalance
        # decision, so auto_rebalance reads only the inter-decision window
        self._load_marks: list[float] = [0.0] * n
        self._n_failovers = 0
        self._since_standby_sync = 0
        self._last_standby_sync = 0
        self._replicator = (
            ShardReplicator(self) if self.config.replication else None
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def shard_of(self, fid: int) -> int:
        """Owning shard index of ``fid``."""
        return self.router.route(fid)

    def shard_for(self, fid: int) -> Farmer:
        """Owning shard of ``fid``. Raises :class:`ShardFailedError`
        while the owner is failed."""
        owner = self.router.route(fid)
        if owner in self._failed:
            raise ShardFailedError(owner)
        return self.shards[owner]

    # ------------------------------------------------------------------
    # boundary echoes
    # ------------------------------------------------------------------

    def flush_echoes(self) -> None:
        """Does nothing: every boundary echo is delivered inside the
        call that produced it, so none is ever pending. Kept so callers
        (and the perfbench trace point on this name) keep working."""

    @property
    def echo_drop_counts(self) -> tuple[int, ...]:
        """Per-destination-shard count of boundary echoes lost because
        the destination was failed. Sums to :attr:`n_echoes_dropped`
        over the shard lifetime (a shrink rebalance truncates the
        per-shard view with the shards)."""
        return tuple(self._echo_drops_by_dest)

    @property
    def n_echoes_shed(self) -> int:
        """Boundary echoes suppressed by overload shedding — records
        folded through :meth:`ingest_stream` with ``allow_echo=False``
        that turned out to be boundary requests."""
        return self._n_echoes_shed

    # ------------------------------------------------------------------
    # mining
    # ------------------------------------------------------------------

    def observe(self, record: TraceRecord) -> None:
        """Route one request to its owner shard; a boundary request
        under ``cross_shard_edges`` is additionally observed by the
        predecessor's shard as an echo (dropped and counted if that
        shard is failed)."""
        if (
            self.config.op_filter is not None
            and record.op not in self.config.op_filter
        ):
            return
        owner = self.router.route(record.fid)
        if owner in self._failed:
            raise ShardFailedError(owner)
        self.shards[owner].observe(record)
        prev = self._prev_owner
        if self.config.cross_shard_edges and prev is not None and prev != owner:
            self._n_boundary_echoes += 1
            if prev in self._failed:
                self._n_echoes_dropped += 1
                self._echo_drops_by_dest[prev] += 1
            else:
                # the owner just folded the record into the shared
                # vector store, so the echo pays only graph/list work
                self.shards[prev].observe_echo(record)
        self._prev_owner = owner
        self._prev_fid = record.fid
        self._n_observed += 1
        if self._replicator is not None:
            self._since_standby_sync += 1
            if self._since_standby_sync >= self.config.standby_sync_interval:
                self.sync_standbys()

    def mine(self, records: Sequence[TraceRecord]) -> "ShardedFarmer":
        """Batch-mine a trace shard by shard; returns self for chaining.

        Two phases: every shard first ingests its substream (graph and
        vector work only), then every shard runs its tick-driven flush.
        The barrier matters because echoed successors live on *other*
        shards: flushing shard by shard would rank them against whatever
        vector prefix happened to be ingested, while the barrier ranks
        everything against the end-of-batch state — the same guarantee
        ``Farmer.mine`` gives a single miner.

        Shard *i*'s substream holds ``(record, is_echo)`` pairs: the
        records it owns plus, under ``cross_shard_edges``, the boundary
        requests echoed to it, inline in the order ``observe`` would
        deliver them. Unavailable while any shard is failed (the batch
        would silently drop that partition's records) — promote the
        standby first.
        """
        if self._failed:
            raise ShardFailedError(min(self._failed))
        config = self.config
        n = config.n_shards
        subs: list[list[tuple[TraceRecord, bool]]] = [[] for _ in range(n)]
        op_filter = config.op_filter
        cross = config.cross_shard_edges
        route = self.router.route
        prev = self._prev_owner
        last_fid = self._prev_fid
        accepted = echoes = 0
        for record in records:
            if op_filter is not None and record.op not in op_filter:
                continue
            owner = route(record.fid)
            subs[owner].append((record, False))
            if cross and prev is not None and prev != owner:
                subs[prev].append((record, True))
                echoes += 1
            prev = owner
            last_fid = record.fid
            accepted += 1
        self._n_observed += accepted
        self._n_boundary_echoes += echoes
        self._prev_owner = prev
        self._prev_fid = last_fid
        changed = [
            shard.ingest_mixed(sub) for shard, sub in zip(self.shards, subs)
        ]
        for shard, touched in zip(self.shards, changed):
            if touched:
                shard.miner.flush_nodes(sorted(touched))
        if self._replicator is not None:
            self._since_standby_sync += accepted
            if self._since_standby_sync >= config.standby_sync_interval:
                self.sync_standbys()
        return self

    def ingest_stream(
        self, items: Iterable[tuple[TraceRecord, bool]]
    ) -> StreamIngestReport:
        """The online consumer's batch seam: fold ``(record, allow_echo)``
        pairs into the shards, deferring every list rank to query time.

        This is :meth:`observe` at batch granularity with two online
        twists:

        * **Per-record echo control.** A record admitted with
          ``allow_echo=False`` (the pipeline's echo-shed watermark was
          exceeded at admission) never places a boundary echo — the
          cross-shard edge is sacrificed before any owned observation
          is, and the sacrifice is counted (:attr:`n_echoes_shed`).
        * **Graceful degradation under failure.** A record owned by a
          failed shard is dropped and counted instead of raising — the
          online service keeps absorbing every healthy partition's
          stream while an operator promotes the standby. (The batch
          entry points ``observe``/``mine`` raise
          :class:`ShardFailedError` instead; a library caller wants the
          loud contract, a long-running service wants to keep serving.)

        Echo placement is **batch-seam-independent**: echoes sit inline
        in the destination's substream (the order ``observe`` delivers
        them in), so any chunking of the stream is bit-identical to one
        batch :meth:`mine` of the same records. Lists are a pure function of
        the end-of-stream graph/vector state (property-tested in
        ``tests/online``). Standby sync barriers keep their
        accepted-request cadence across batches.
        """
        n = len(self.shards)
        subs: list[list[tuple[TraceRecord, bool]]] = [[] for _ in range(n)]
        sync_every = self.config.standby_sync_interval
        replicator = self._replicator
        op_filter = self.config.op_filter
        cross = self.config.cross_shard_edges
        route = self.router.route
        failed = self._failed
        prev = self._prev_owner
        last_fid = self._prev_fid
        accepted = 0
        ingested = 0  # accepted records already folded (sync chunks)
        echoes_placed = 0
        echoes_shed = 0
        dropped_failed = 0

        def fold_pending() -> None:
            # fold the accumulated owned substreams into the shards.
            # Unlike mine(), the touched nodes are only marked dirty,
            # not flushed: the online consumer defers every rank to
            # query time, and a list is a pure function of end-state
            # either way
            nonlocal ingested
            self._n_observed += accepted - ingested
            ingested = accepted
            for index, shard in enumerate(self.shards):
                sub = subs[index]
                if sub:
                    mark = shard.miner.mark_dirty
                    for fid in shard.ingest_mixed(sub):
                        mark(fid)
                    subs[index] = []

        for record, allow_echo in items:
            if op_filter is not None and record.op not in op_filter:
                continue
            owner = route(record.fid)
            if owner in failed:
                # the partition is down: its share of the stream is the
                # loss window, but boundary geometry stays truthful (the
                # request happened; its successor's echo would target
                # the failed owner and be dropped below)
                dropped_failed += 1
                prev = owner
                last_fid = record.fid
                continue
            subs[owner].append((record, False))
            if cross and prev is not None and prev != owner:
                self._n_boundary_echoes += 1
                if not allow_echo:
                    echoes_shed += 1
                elif prev in failed:
                    self._n_echoes_dropped += 1
                    self._echo_drops_by_dest[prev] += 1
                else:
                    subs[prev].append((record, True))
                    echoes_placed += 1
            prev = owner
            last_fid = record.fid
            accepted += 1
            if replicator is not None:
                self._since_standby_sync += 1
                if self._since_standby_sync >= sync_every:
                    # per-record cadence, not per-batch: the barrier
                    # must land at exactly the accepted count the
                    # record-at-a-time schedule would pick
                    fold_pending()
                    self.sync_standbys()
        fold_pending()
        self._n_echoes_shed += echoes_shed
        self._prev_owner = prev
        if last_fid is not None:
            self._prev_fid = last_fid
        return StreamIngestReport(
            n_accepted=accepted,
            n_echoes_placed=echoes_placed,
            n_echoes_shed=echoes_shed,
            n_dropped_failed=dropped_failed,
        )

    # ------------------------------------------------------------------
    # queries (route to the owner shard)
    # ------------------------------------------------------------------

    def correlators(self, fid: int) -> list[CorrelatorEntry]:
        """Valid correlates of ``fid`` from its owner shard."""
        return self.shard_for(fid).correlators(fid)

    def predict(self, fid: int, k: int | None = None) -> list[int]:
        """Prefetch candidates for ``fid`` from its owner shard."""
        return self.shard_for(fid).predict(fid, k)

    def correlation_degree(self, src: int, dst: int) -> float:
        """``R(src, dst)`` as evaluated by ``src``'s owner shard."""
        return self.shard_for(src).correlation_degree(src, dst)

    def semantic_distance(self, src: int, dst: int) -> float:
        """``sim(src, dst)`` (vectors are shared, so any shard agrees)."""
        return self.shard_for(src).semantic_distance(src, dst)

    def access_frequency(self, src: int, dst: int) -> float:
        """``F(src, dst)`` from ``src``'s owner shard."""
        return self.shard_for(src).access_frequency(src, dst)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def flush_shard(self, index: int) -> None:
        """Re-rank shard ``index``'s *owned* dirty lists. Halo lists
        (foreign fids left dirty by boundary echoes) stay lazy — queries
        route to the owner shard, so ranking them is work nobody reads.
        """
        shard = self.shards[index]
        route = self.router.route
        shard.miner.flush_nodes(
            fid for fid in shard.miner.dirty_nodes() if route(fid) == index
        )

    def snapshot(self) -> CorrelationSnapshot:
        """Aggregate Correlator-List statistics over *owned* lists.

        A boundary file can hold a partial list on a neighbour shard
        (the echo's by-product); only the owner shard's authoritative
        list is counted, so ``n_shards=1`` matches ``Farmer.snapshot``
        exactly and multi-shard numbers are not inflated by halo state.
        Aggregation runs in fid order, so the float means are identical
        for any shard layout holding the same owned lists (rebalancing
        must not perturb the snapshot by summation order alone).
        """
        route = self.router.route
        per_fid: dict[int, tuple[int, float]] = {}
        for index, shard in enumerate(self.shards):
            self.flush_shard(index)
            for fid, lst in shard.miner.lists().items():
                if len(lst) > 0 and route(fid) == index:
                    per_fid[fid] = (len(lst), lst.top(1)[0].degree)
        if not per_fid:
            return CorrelationSnapshot(0, 0, 0.0, 0, 0.0)
        ordered = [per_fid[fid] for fid in sorted(per_fid)]
        lengths = [length for length, _ in ordered]
        tops = [top for _, top in ordered]
        return CorrelationSnapshot(
            n_lists=len(lengths),
            n_entries=sum(lengths),
            mean_length=sum(lengths) / len(lengths),
            max_length=max(lengths),
            mean_top_degree=sum(tops) / len(tops),
        )

    def f1_evaluations(self) -> int:
        """Function-1 evaluations across every shard and standby."""
        return self.sim_cache.stats().evaluations

    def memory_bytes(self) -> int:
        """Total footprint; shared components are counted exactly once."""
        total = self.vocabulary.approx_bytes() + self.vector_store.approx_bytes()
        # shards skip the injected (non-owned) components themselves
        total += sum(shard.memory_bytes() for shard in self.shards)
        if self._replicator is not None:
            # warm standbys are real resident state (the availability
            # premium replication pays); shared stores counted above
            total += self._replicator.memory_bytes()
        return total

    @property
    def n_observed(self) -> int:
        """Requests the service accepted (echoes not double-counted)."""
        return self._n_observed

    @property
    def n_boundary_echoes(self) -> int:
        """Boundary requests echoed to the predecessor's shard
        (including those dropped for a failed destination)."""
        return self._n_boundary_echoes

    def stats(self) -> ServiceStats:
        """Aggregated per-shard stats, Function-1 count and memory."""
        replicator = self._replicator
        return ServiceStats(
            n_shards=self.config.n_shards,
            n_observed=self._n_observed,
            n_boundary_echoes=self._n_boundary_echoes,
            shards=tuple(shard.stats() for shard in self.shards),
            f1_evaluations=self.f1_evaluations(),
            memory_bytes=self.memory_bytes(),
            n_rebalances=self._n_rebalances,
            n_migrated_fids=self._n_migrated_fids,
            n_echoes_dropped=self._n_echoes_dropped,
            n_failovers=self._n_failovers,
            n_standby_syncs=replicator.n_barriers if replicator else 0,
            echo_drops_by_shard=tuple(self._echo_drops_by_dest),
            n_echoes_shed=self._n_echoes_shed,
        )

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------

    def rebalance(
        self,
        n_shards: int | None = None,
        *,
        policy: str | None = None,
        weights: Sequence[float] | None = None,
        router: ShardRouter | None = None,
    ) -> RebalanceReport:
        """Install a new topology and migrate only the fids that moved.

        Args:
            n_shards: new shard count (default: keep the current count).
            policy: new router policy (``"hash"`` / ``"range"`` /
                ``"consistent_hash"``; default: keep the current one).
            weights: per-shard weights for the consistent-hash ring
                (need not sum to 1; a zero empties that shard's slice).
                Default: keep the current ring's weights. If the
                current ring has explicit weights and the shard count
                changes, matching-length weights must be passed — a
                silent reset to uniform would re-populate a
                deliberately drained shard.
            router: an explicit pre-built router — overrides ``policy``
                / ``weights`` and must agree with the final shard count.

        Returns:
            A :class:`RebalanceReport` (how much of the namespace
            moved, and how long migration took).

        Migration semantics: every fid whose owner changed has its graph
        node and freshly-ranked Correlator List shipped from the old
        owner to the new one
        (`CoMiner.flush_nodes_report` ranks, ``extract_state`` /
        ``adopt_migrated`` move), so no re-mining happens and
        post-rebalance queries serve exactly the lists the old owners
        would have served. Shards beyond a shrunken count are dropped
        after their fids migrate out; new shards join sharing the same
        vocabulary, vector store and Function-1 counter. Halo state left
        behind on old shards (echo by-products for fids that moved) is
        unreachable through queries and is reclaimed as those graphs
        evolve.

        Equivalence scope: pre-rebalance query results are preserved
        verbatim for every fid; with ``window=1`` (boundary echoes then
        capture the cross-shard edge set exactly) a mined-then-
        rebalanced service is bit-identical to one freshly mined at the
        new topology. For wider windows, echoed deep-window edges are
        topology-dependent, so the from-scratch comparison is
        approximate while query preservation still holds exactly.
        """
        if self._failed:
            raise ShardFailedError(min(self._failed))
        start = time.perf_counter()
        old_n = len(self.shards)
        new_n = n_shards if n_shards is not None else old_n
        if router is not None:
            if router.n_shards != new_n:
                raise ConfigError(
                    f"router has {router.n_shards} shards, rebalance wants {new_n}"
                )
            new_policy = policy if policy is not None else self.config.shard_policy
        else:
            new_policy = policy if policy is not None else self.config.shard_policy
            if weights is not None and new_policy != "consistent_hash":
                raise ConfigError(
                    "per-shard weights require the consistent_hash policy"
                )
            # like n_shards and policy, explicit ring weights default to
            # "keep current" — silently rebuilding a uniform ring would
            # re-populate a shard an operator deliberately drained
            current_weights = getattr(self.router, "weights", None)
            if (
                weights is None
                and current_weights is not None
                and new_policy == "consistent_hash"
            ):
                if new_n == len(current_weights):
                    weights = current_weights
                else:
                    raise ConfigError(
                        "the current consistent-hash router has explicit "
                        f"per-shard weights ({len(current_weights)} shards); "
                        f"rebalancing to {new_n} shards needs weights= of "
                        "matching length (carrying the old ones over would "
                        "silently re-weight the ring)"
                    )
            router = make_router(
                new_policy,
                new_n,
                virtual_nodes=self.config.router_virtual_nodes,
                seed=self.config.router_seed,
                weights=weights,
            )
        if new_n > old_n:
            shards = list(self.shards)
            shards.extend(
                Farmer(
                    self.config,
                    vocabulary=self.vocabulary,
                    vector_store=self.vector_store,
                    sim_cache=self.sim_cache,
                )
                for _ in range(new_n - old_n)
            )
            self.shards = tuple(shards)
            self._echo_drops_by_dest.extend(0 for _ in range(new_n - old_n))
        old_route = self.router.route
        n_owned = 0
        n_migrated = 0
        for index, shard in enumerate(self.shards):
            # owned fids only: halo nodes (echo by-products) are not
            # authoritative and must not overwrite the owner's state
            owned = [
                fid
                for fid in shard.constructor.graph.nodes()
                if old_route(fid) == index
            ]
            n_owned += len(owned)
            moved = [fid for fid in owned if router.route(fid) != index]
            if not moved:
                continue
            moved.sort()
            # rank at the source so the shipped list is exactly what
            # the old owner would have served (flush_nodes_report skips
            # tick-unchanged lists; those are already ranked)
            ranked = shard.miner.flush_nodes_report(moved)
            graph = shard.constructor.graph
            for fid in moved:
                node = graph.pop_node(fid)
                lst = shard.miner.extract_state(fid)
                lst = ranked.get(fid, lst)
                dest = self.shards[router.route(fid)]
                if node is not None:
                    dest.constructor.graph.adopt_node(fid, node)
                if lst is not None:
                    dest.miner.adopt_migrated(
                        fid, lst, node.change_tick if node is not None else 0
                    )
            n_migrated += len(moved)
        if new_n < old_n:
            self.shards = self.shards[:new_n]
            del self._echo_drops_by_dest[new_n:]
        self.router = router
        self.config = self.config.with_(n_shards=new_n, shard_policy=new_policy)
        # re-seed boundary detection under the new topology, exactly as
        # a from-scratch service would have routed the last request.
        # Explicit both ways: a destination shard that never existed
        # before this rebalance must start from well-defined boundary
        # state, so the no-stream case resets to None rather than
        # leaving whatever the old topology held.
        if self._prev_fid is not None:
            self._prev_owner = router.route(self._prev_fid)
        else:
            self._prev_owner = None
        self._n_rebalances += 1
        self._n_migrated_fids += n_migrated
        # every topology change resets the load-attribution window: the
        # namespace just moved, so pre-rebalance load no longer describes
        # the shards it landed on (auto_rebalance's convergence contract)
        self._mark_loads()
        if self._replicator is not None:
            # ownership moved wholesale: stale standbys are worthless,
            # so rebuild them and take a fresh barrier immediately
            self._replicator.resize()
            self.sync_standbys()
        return RebalanceReport(
            n_shards_before=old_n,
            n_shards_after=new_n,
            policy=new_policy,
            n_owned=n_owned,
            n_migrated=n_migrated,
            elapsed_s=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    # load-aware rebalancing
    # ------------------------------------------------------------------

    def _raw_loads(self) -> tuple[float, ...]:
        """Lifetime per-shard load signals (no windowing)."""
        return tuple(
            load_signal(
                shard.n_observed, shard.miner.rerank_stats().entries_scanned
            )
            for shard in self.shards
        )

    def _mark_loads(self) -> None:
        """Reset the load-attribution window to now: subsequent
        ``shard_loads(since_decision=True)`` reads start from zero.
        Called at the end of every :meth:`rebalance` (any topology
        change invalidates prior attribution) and per shard at
        :meth:`promote_standby` (the promoted Farmer's counters restart
        at the standby's values)."""
        self._load_marks = list(self._raw_loads())

    def shard_loads(self, *, since_decision: bool = False) -> tuple[float, ...]:
        """Per-shard load signal: requests absorbed (owned + echoes)
        plus re-rank entries scanned — the same counters
        :class:`~repro.service.stats.ServiceStats` aggregates, read
        live without the full stats rollup.

        Args:
            since_decision: if True, return only the load observed
                since the last rebalance decision (or construction) —
                the window :meth:`auto_rebalance` feeds into ring
                weights. Default False returns the lifetime totals,
                which is what ``ServiceStats.shard_loads`` reports.
        """
        raw = self._raw_loads()
        if not since_decision:
            return raw
        marks = self._load_marks
        # clamped at zero: a promoted standby's counters restart below
        # the failed primary's mark
        return tuple(
            max(0.0, r - m) for r, m in zip(raw, marks)
        )

    def auto_rebalance(
        self, *, weight_floor: float = 0.25, weight_ceiling: float = 4.0
    ) -> AutoRebalanceReport:
        """Feed observed per-shard load back into consistent-hash ring
        weights and rebalance onto them.

        The decision reads each shard's load **since the previous
        rebalance decision** (``shard_loads(since_decision=True)``),
        not the lifetime totals. That windowing is the convergence
        contract: after a decision moves namespace off a hot shard, the
        next decision judges the shards by what they absorbed *under
        the new topology* — lifetime counters would keep penalising a
        shard for skew it already shed, pinning it at the weight floor
        forever. Every :meth:`rebalance` (manual or automatic) resets
        the window; :meth:`promote_standby` resets the promoted shard's
        mark to the standby's counters.

        Each shard's weight is the window's mean load over its own
        window load (clamped to ``[weight_floor, weight_ceiling]``), so
        weights are monotone *decreasing* in load: a shard that
        absorbed twice the average work gets half the average ring
        share and sheds namespace, a near-idle shard absorbs it. A
        window with **no observed load at all** (an immediate second
        decision, or a freshly-built service) installs no new opinion:
        the current ring weights are kept verbatim (uniform if the
        current router has none), so a signal-free decision is a no-op
        rather than a silent reset to uniform. The shard count is
        unchanged; the router policy becomes ``consistent_hash`` (the
        only weighted policy). Queries are invariant, exactly as for
        any :meth:`rebalance` (property-tested).

        Args:
            weight_floor: lower clamp — keeps a pathologically hot
                shard from being drained to zero by one decision.
            weight_ceiling: upper clamp — keeps a near-idle shard from
                swallowing the namespace.

        Returns:
            An :class:`AutoRebalanceReport` with the window loads read,
            the weights installed, and the underlying migration report.
        """
        if not 0.0 < weight_floor <= weight_ceiling:
            raise ConfigError(
                "need 0 < weight_floor <= weight_ceiling for auto_rebalance"
            )
        loads = self.shard_loads(since_decision=True)
        total = sum(loads)
        if total <= 0.0:
            current = getattr(self.router, "weights", None)
            weights = (
                tuple(current)
                if current is not None and len(current) == len(loads)
                else tuple(1.0 for _ in loads)
            )
        else:
            mean_load = total / len(loads)
            weights = tuple(
                min(weight_ceiling, max(weight_floor, mean_load / max(load, 1.0)))
                for load in loads
            )
        report = self.rebalance(policy="consistent_hash", weights=weights)
        return AutoRebalanceReport(
            loads=loads, weights=weights, rebalance=report
        )

    # ------------------------------------------------------------------
    # replication & failover
    # ------------------------------------------------------------------

    def _require_replication(self) -> ShardReplicator:
        if self._replicator is None:
            raise ReplicationError(
                "replication is disabled; construct the service with "
                "FarmerConfig(replication=True) to keep warm standbys"
            )
        return self._replicator

    def sync_standbys(self) -> StandbySyncReport:
        """Force a standby sync barrier now (healthy shards only).

        Runs automatically every ``standby_sync_interval`` accepted
        requests; public so a deployment can align barriers with its
        own checkpoints. Each primary's tick-changed nodes and
        freshly-ranked lists are copied to its standby.
        """
        replicator = self._require_replication()
        report = replicator.sync_all()
        self._since_standby_sync = 0
        self._last_standby_sync = report.at_observed
        return report

    def fail_shard(self, index: int) -> None:
        """Simulate the loss of shard ``index``'s private mining state.

        The shard's graph, Correlator Lists and re-rank bookkeeping are
        discarded. The shared vocabulary, vector store and Function-1
        counter are namespace-global and unaffected. Until
        :meth:`promote_standby` runs, requests and queries routed to
        this shard raise :class:`ShardFailedError` while every other
        partition keeps serving; aggregate accounting (``snapshot`` /
        ``stats``) excludes the failed partition.
        """
        self._require_replication()
        if not 0 <= index < len(self.shards):
            raise ConfigError(f"no shard {index} in a {len(self.shards)}-shard service")
        if index in self._failed:
            raise ReplicationError(f"shard {index} is already failed")
        shards = list(self.shards)
        # an empty placeholder keeps aggregate walks (stats/snapshot)
        # total; the _failed guard keeps routed traffic out of it
        shards[index] = Farmer(
            self.config,
            vocabulary=self.vocabulary,
            vector_store=self.vector_store,
            sim_cache=self.sim_cache,
        )
        self.shards = tuple(shards)
        self._failed.add(index)

    def promote_standby(self, index: int) -> FailoverReport:
        """Put shard ``index``'s warm standby in service and re-protect it.

        The promoted shard serves exactly what the failed primary
        served at the last sync barrier (bit-for-bit identical queries
        to a never-failed service fed the stream up to that barrier —
        property-tested), and immediately resumes observing its
        partition. A fresh standby is then built and fully synced from
        the promoted primary, so the shard is protected against the
        next failure without waiting for the interval cadence.
        """
        replicator = self._require_replication()
        if index not in self._failed:
            raise ReplicationError(
                f"shard {index} is not failed; fail_shard({index}) first"
            )
        start = time.perf_counter()
        replica = replicator.take(index)
        shards = list(self.shards)
        shards[index] = replica.farmer
        self.shards = tuple(shards)
        self._failed.discard(index)
        # the promoted Farmer's counters restart at the standby's values
        # (below the failed primary's mark) — re-mark so the next
        # auto_rebalance window for this shard starts at zero, not at a
        # clamp artifact
        self._load_marks[index] = load_signal(
            replica.farmer.n_observed,
            replica.farmer.miner.rerank_stats().entries_scanned,
        )
        promote_s = time.perf_counter() - start
        start = time.perf_counter()
        replicator.reseed(index)
        reseed_s = time.perf_counter() - start
        self._n_failovers += 1
        return FailoverReport(
            shard=index,
            synced_at=replica.synced_at,
            lag=self._n_observed - replica.synced_at,
            n_nodes_restored=replica.farmer.constructor.graph.n_nodes(),
            promote_s=promote_s,
            reseed_s=reseed_s,
        )

    @property
    def failed_shards(self) -> tuple[int, ...]:
        """Currently-failed shard indexes, ascending (empty = healthy)."""
        return tuple(sorted(self._failed))

    @property
    def last_standby_sync(self) -> int:
        """Service-level accepted-request count at the most recent
        standby sync barrier (0 before the first barrier) — the point a
        failover right now would restore to."""
        return self._last_standby_sync

    @property
    def n_failovers(self) -> int:
        """Promotions performed so far."""
        return self._n_failovers

    @property
    def n_echoes_dropped(self) -> int:
        """Boundary echoes lost because their destination shard was
        failed (at-most-once delivery)."""
        return self._n_echoes_dropped
