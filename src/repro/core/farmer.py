"""The FARMER façade: the four-stage pipeline behind one object.

Typical use::

    from repro import Farmer, FarmerConfig, generate_trace

    farmer = Farmer(FarmerConfig(weight_p=0.7, max_strength=0.4))
    farmer.mine(generate_trace("hp", 20_000, seed=1))
    for entry in farmer.correlators(fid):
        print(entry.fid, entry.degree)

``observe`` is the online entry point (one request at a time — this is
what the metadata-server simulator drives); ``mine`` is the batch
convenience. ``predict`` returns the prefetch candidates the paper's FPA
issues: the head of the (already threshold-filtered) Correlator List.

Lazy mining contract
--------------------

``observe`` does only the O(window) work a request strictly requires:
it updates the graph and vectors, hands each just-reinforced predecessor
edge to :meth:`CoMiner.defer_edge`, and *marks the requested file's
Correlator List dirty* instead of re-running Algorithm 1. A deferred
edge refresh is dropped when the predecessor's list is dirty (a re-rank
rebuilds it first) and otherwise logged with its inputs, then replayed
exactly on the next read of that list — so no Function 1 runs on the
request itself. The full re-rank + stale-edge sweep happens on the first
query of a dirty list (``correlators`` / ``predict`` / ``snapshot`` /
``sorter``), which evaluates Functions 1 and 2 for every current
successor. Query results therefore always reflect a full Algorithm-1
pass; when queries follow the triggering request (the FPA pattern) they are bit-identical to the
paper's eager per-request schedule (the test suite's oracle module
keeps it as the reference), and between a request and the next query
of some *other* file the lazy path serves strictly fresher degrees than
eager would.

``mine`` goes further: during the batch no list maintenance runs at all;
one tick-driven flush at the end re-ranks exactly the files the batch
touched. Note the scope of the equivalence guarantee: batch-mined lists
are ranked against the *end-of-batch* graph and vector state, whereas
the eager schedule freezes each list at the file's last request — so
after ``mine`` the two can legitimately differ (the lazy result is the
fresher of the two).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.cominer import CoMiner, F1Counter, RerankStats
from repro.core.config import FarmerConfig
from repro.core.constructor import GraphConstructor
from repro.core.extractor import Extractor
from repro.core.sorter import CorrelationSnapshot, Sorter
from repro.core.vector_store import VectorStore
from repro.graph.correlator_list import CorrelatorEntry
from repro.traces.record import TraceRecord
from repro.vsm.vocabulary import Vocabulary

__all__ = ["Farmer", "FarmerStats"]


@dataclass(frozen=True, slots=True)
class FarmerStats:
    """Size/footprint summary of a FARMER instance."""

    n_observed: int
    n_files: int
    n_edges: int
    n_lists: int
    n_entries: int
    vocabulary_size: int
    memory_bytes: int
    f1_evaluations: int
    rerank: RerankStats

    @property
    def memory_megabytes(self) -> float:
        """Footprint in MB (10^6 bytes, as Table 4 reports)."""
        return self.memory_bytes / 1e6


class Farmer:
    """File Access coRrelation Mining and Evaluation Reference model.

    The keyword-only parameters inject components that a
    :class:`~repro.service.ShardedFarmer` shares across its shards (one
    vocabulary, one namespace-global vector store, one Function-1
    evaluation counter); a stand-alone Farmer owns private instances and
    behaves exactly as before.
    """

    def __init__(
        self,
        config: FarmerConfig | None = None,
        *,
        vocabulary: Vocabulary | None = None,
        vector_store: VectorStore | None = None,
        sim_cache: F1Counter | None = None,
    ) -> None:
        self.config = config if config is not None else FarmerConfig()
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self.owns_vocabulary = vocabulary is None
        self.extractor = Extractor(self.config.attributes, self.vocabulary)
        self.constructor = GraphConstructor(
            self.config, self.extractor, vectors=vector_store
        )
        self.miner = CoMiner(self.config, self.constructor, sim_cache=sim_cache)
        self.sorter = Sorter(self.miner)
        self._n_observed = 0

    # ------------------------------------------------------------------
    # mining
    # ------------------------------------------------------------------

    def observe(self, record: TraceRecord) -> None:
        """Feed one request through all four stages."""
        if (
            self.config.op_filter is not None
            and record.op not in self.config.op_filter
        ):
            return
        fid, touched = self.constructor.observe(record)
        miner = self.miner
        # the freshly-reinforced incoming edges are logged for an exact
        # replay on read; Algorithm 1 over the requested file's own
        # successors waits for the first query of the (now dirty) list.
        for pred in touched:
            miner.defer_edge(pred, fid)
        miner.mark_dirty(fid)
        self._n_observed += 1

    def observe_echo(self, record: TraceRecord) -> None:
        """Observe a boundary request echoed from another shard.

        Two costs of :meth:`observe` are shed. The vector update is
        skipped outright — the record's owner shard has already folded
        it into the shared vector store this Farmer was constructed
        with. And the reinforced predecessor lists are only marked
        dirty rather than logged for replay (:meth:`CoMiner.defer_edge`):
        the replay exists to match the eager schedule bit-for-bit, but
        echoed edges have no single-miner counterpart to match, and the
        predecessors' next query re-ranks their whole list anyway.
        """
        if (
            self.config.op_filter is not None
            and record.op not in self.config.op_filter
        ):
            return
        fid, touched = self.constructor.observe_graph(record)
        mark = self.miner.mark_dirty
        for pred in touched:
            mark(pred)
        mark(fid)
        self._n_observed += 1

    def mine(self, records: Iterable[TraceRecord]) -> "Farmer":
        """Batch-mine a trace; returns self for chaining.

        List maintenance is deferred entirely during the batch and a
        single tick-driven flush at the end re-ranks every file whose
        graph state changed.
        """
        self.miner.flush_nodes(sorted(self.ingest(records)))
        return self

    def ingest(self, records: Iterable[TraceRecord]) -> set[int]:
        """The ingest half of :meth:`mine` (echo-free streams): feed
        graph and vectors only, deferring every flush; returns the
        touched fids.

        Runs as two batch passes — all vector folds, then all graph
        observations — which is equivalent to the interleaved per-record
        order (the two stores share no state), and lets each store use
        its hoisted batch path (:meth:`VectorStore.update_batch` defers
        merged-vector builds; :meth:`CorrelationGraph.observe_batch`
        walks the window over the batch list itself).
        """
        op_filter = self.config.op_filter
        if op_filter is None:
            if not isinstance(records, list):
                records = list(records)
        else:
            records = [r for r in records if r.op in op_filter]
        constructor = self.constructor
        constructor.vectors.update_batch(records)
        changed = constructor.graph.observe_batch([r.fid for r in records])
        self._n_observed += len(records)
        return changed

    def ingest_mixed(
        self, records: Iterable[tuple[TraceRecord, bool]]
    ) -> set[int]:
        """Ingest a substream of ``(record, is_echo)`` pairs — the
        sharded service's per-shard batch path: feed graph and vectors
        only, deferring every flush; returns the touched fids. The
        sharded service ingests *all* shards' substreams before flushing
        any of them, so cross-shard Correlator entries rank against the
        fully-updated shared vector store rather than whichever prefix
        happened to be ingested first.

        Echo records run the graph-only schedule of :meth:`observe_echo`
        (their owner shard maintains the shared vector store;
        re-updating here would perturb its merge-recency and, under the
        "latest" policy, let substream processing order override global
        record order). So splitting into one vector batch (owned
        records, stream order) and one graph batch (all records, stream
        order) preserves per-record semantics exactly."""
        op_filter = self.config.op_filter
        pairs = [
            (r, e)
            for r, e in records
            if op_filter is None or r.op in op_filter
        ]
        constructor = self.constructor
        constructor.vectors.update_batch([r for r, e in pairs if not e])
        changed = constructor.graph.observe_batch([r.fid for r, _ in pairs])
        self._n_observed += len(pairs)
        return changed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def n_observed(self) -> int:
        """Requests this miner accepted (cheap; ``stats()`` aggregates)."""
        return self._n_observed

    def correlators(self, fid: int) -> list[CorrelatorEntry]:
        """Valid correlates of ``fid``, strongest first."""
        return self.sorter.correlators(fid)

    def predict(self, fid: int, k: int | None = None) -> list[int]:
        """Prefetch candidates for a request of ``fid`` (FPA's query)."""
        if k is None:
            k = self.config.prefetch_k
        return [e.fid for e in self.sorter.top(fid, k)]

    def correlation_degree(self, src: int, dst: int) -> float:
        """Current ``R(src, dst)`` (Function 2), 0.0 for unseen pairs."""
        return self.miner.correlation_degree(src, dst)

    def semantic_distance(self, src: int, dst: int) -> float:
        """Current ``sim(src, dst)`` (Function 1), 0.0 for unseen files."""
        return self.miner.semantic_distance(src, dst)

    def access_frequency(self, src: int, dst: int) -> float:
        """Current ``F(src, dst)``, 0.0 for unseen pairs."""
        return self.constructor.graph.frequency(src, dst)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def snapshot(self) -> CorrelationSnapshot:
        """Aggregate Correlator-List statistics."""
        return self.sorter.snapshot()

    def memory_bytes(self) -> int:
        """FARMER's additional footprint: vocabulary + graph + vectors +
        Correlator Lists (the quantity Table 4 reports). Injected shared
        components are accounted by their owner, not here."""
        return (
            (self.vocabulary.approx_bytes() if self.owns_vocabulary else 0)
            + self.constructor.approx_bytes()
            + self.miner.approx_bytes()
        )

    def f1_evaluations(self) -> int:
        """Function-1 evaluations so far — the supported surface for
        benchmarks and experiments. Under a counter shared by a sharded
        service this counts every sharing shard."""
        return self.miner.f1_evaluations()

    def rerank_stats(self) -> RerankStats:
        """Re-rank op counters (re-evaluations, entries scanned/skipped,
        insort ops) — the supported surface for op-count assertions."""
        return self.miner.rerank_stats()

    def stats(self, snap: CorrelationSnapshot | None = None) -> FarmerStats:
        """Full size/footprint summary; its list counts come from ``snap``
        (default: :meth:`snapshot`)."""
        if snap is None:
            snap = self.snapshot()
        return FarmerStats(
            n_observed=self._n_observed,
            n_files=self.constructor.graph.n_nodes(),
            n_edges=self.constructor.graph.n_edges(),
            n_lists=snap.n_lists,
            n_entries=snap.n_entries,
            vocabulary_size=len(self.vocabulary),
            memory_bytes=self.memory_bytes(),
            f1_evaluations=self.f1_evaluations(),
            rerank=self.rerank_stats(),
        )
