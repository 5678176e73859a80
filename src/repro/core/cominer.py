"""Stage 3 — Mining & Evaluating: the CoMiner algorithm (paper §3.2).

For a file ``x`` and each graph successor ``y``:

* semantic distance ``sim(x, y)`` via the configured path algorithm
  (Function 1, IPA by default);
* access frequency ``F(x, y) = N_xy / N_x`` with LDA-weighted ``N_xy``;
* correlation degree ``R(x, y) = sim·p + F·(1 − p)`` (Function 2);

entries with ``R > max_strength`` go into (or re-rank within) the file's
Correlator List; weaker ones are filtered out. This mirrors the paper's
Algorithm 1 pseudo-code.

Incremental hot path (the dirty/lazy contract)
----------------------------------------------

The paper's "reasonable overhead" claim (§4, Table 4) needs per-request
mining to be O(small). Two mechanisms make it so:

* **Dirty lists, lazy re-rank** — a request for ``x`` changes the
  denominator of every ``F(x, ·)``, so the whole list of ``x`` is stale;
  instead of re-running Algorithm 1 immediately, ``observe`` calls
  :meth:`mark_dirty` and the full re-rank + stale-edge sweep is deferred
  to the first *query* of the list (:meth:`query` / :meth:`flush_all`).
  Reinforced edges (``pred → x`` for predecessors in the window) only
  move one entry, and they are not refreshed on the request either:
  :meth:`defer_edge` drops the refresh when ``pred``'s list is dirty
  (it is rebuilt from current state before any query can see it) and
  otherwise appends the refresh's inputs — both semantic vectors and
  ``F(pred, x)`` — to a per-source edge log. The log is
  replayed in order on the next read of a list that was not rebuilt
  first (:meth:`query`, :meth:`flush_all`, :meth:`list_of`,
  :meth:`lists`, :meth:`extract_state`), with the arithmetic of
  :meth:`correlation_degree` on the captured vectors, so
  every list a reader sees is bit-for-bit the one an immediate refresh
  of the edge would have built; any rebuild or replacement of the list
  discards its log. Raw views of a *dirty* list
  (:meth:`list_of`/:meth:`lists` before a flush) therefore no longer
  carry the refreshes dropped while it was dirty. Pinned by
  ``tests/core/test_edge_log.py``. A mid-stream reader (aggregate
  statistics, the standby sync) ranks through :meth:`rank_for_read`,
  which puts every list it ranked back to dirty, so reads never move
  the schedule.

* **Change ticks** — the graph stamps every node with a monotonic
  :meth:`~repro.graph.correlation_graph.CorrelationGraph.change_tick`;
  :meth:`reevaluate` records the tick it ranked at, and
  :meth:`flush_nodes` (the batch-``mine`` path) re-ranks exactly the
  touched nodes whose tick moved since they were last ranked.

One-pass re-rank
----------------

``reevaluate`` is the hottest loop in the system, and it runs as one
measurable pass instead of d independent ``update``/``insort`` calls:

* the source's vector and access count are resolved **once**;
* every successor gets Function 1 as one row
  (:func:`~repro.vsm.similarity.similarity_row`): IPA's source side,
  path set included, is built once per re-rank, a successor without a
  vector scores 0 uncounted, and the values are bit-identical to
  per-pair :meth:`semantic_distance` calls;
* the list is materialised by a single
  :meth:`~repro.graph.correlator_list.CorrelatorList.rebuild` (sort +
  threshold/capacity cut, O(d log d)) instead of d binary insertions.

Nothing is kept between ranks: a re-rank recomputes Functions 1 and 2
for every current successor. The test suite's oracle module holds the
paper-literal references: an entrywise re-rank (clear, then one
``update`` per successor) and the eager per-request schedule; the
output and the Function-1 count are identical to theirs
(property-tested). The op counters in :class:`RerankStats` and the
Function-1 evaluation count (:class:`F1Counter`) let benchmarks assert
the work instead of poking internals.

Ranking contract: a re-ranked list is a pure function of the file's
*current* successor set — the top-capacity degrees above the threshold.
Stale entries and stale degrees never interact with the capacity cut.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import FarmerConfig
from repro.core.constructor import GraphConstructor
from repro.graph.correlator_list import CorrelatorList
from repro.vsm.similarity import similarity, similarity_row

__all__ = ["CoMiner", "F1Counter", "F1Stats", "RerankStats"]


@dataclass(frozen=True, slots=True)
class F1Stats:
    """A snapshot of an :class:`F1Counter`.

    ``lookups`` and ``misses`` are the names the benchmark reads (from
    when a similarity cache sat in front of Function 1); both equal
    ``evaluations``.
    """

    evaluations: int

    @property
    def lookups(self) -> int:
        """Function-1 evaluations (an alias of ``evaluations``)."""
        return self.evaluations

    @property
    def misses(self) -> int:
        """Function-1 evaluations (an alias of ``evaluations``)."""
        return self.evaluations


class F1Counter:
    """Counts Function-1 evaluations.

    A :class:`~repro.service.ShardedFarmer` injects one counter into
    every shard (and standby), so the service-wide count needs no
    summing.
    """

    __slots__ = ("_n",)

    def __init__(self) -> None:
        self._n = 0

    def add(self, n: int) -> None:
        """Record ``n`` more evaluations."""
        self._n += n

    def stats(self) -> F1Stats:
        """Snapshot of the count."""
        return F1Stats(self._n)


@dataclass(frozen=True, slots=True)
class RerankStats:
    """Operation counters of the re-rank hot path (since construction).

    Attributes:
        n_reevaluations: full Algorithm-1 re-ranks performed.
        entries_scanned: successor entries examined across all re-ranks.
        entries_skipped_unchanged: always 0 — a re-rank evaluates every
            successor. Kept because the benchmark reads it.
        insort_ops: binary insertions into Correlator Lists (a re-rank
            performs none; an edge-log replay insorts once per logged
            refresh; refreshes still pending in a log are not counted).
    """

    n_reevaluations: int
    entries_scanned: int
    entries_skipped_unchanged: int
    insort_ops: int


class CoMiner:
    """Evaluates correlation degrees and maintains Correlator Lists."""

    def __init__(
        self,
        config: FarmerConfig,
        constructor: GraphConstructor,
        sim_cache: F1Counter | None = None,
    ) -> None:
        self.config = config
        self.constructor = constructor
        # the Function-1 evaluation counter; a sharded service injects
        # one shared by all its shards. The attribute keeps its
        # historical name, which perfbench reads.
        self.sim_cache = sim_cache if sim_cache is not None else F1Counter()
        self._lists: dict[int, CorrelatorList] = {}
        self._dirty: set[int] = set()
        self._ranked_tick: dict[int, int] = {}
        # src -> pending edge refreshes (dst, va, vb, freq),
        # in arrival order (see defer_edge)
        self._edge_log: dict[int, list[tuple]] = {}
        self._n_reevaluations = 0
        self._entries_scanned = 0

    # ------------------------------------------------------------------
    # degree evaluation
    # ------------------------------------------------------------------

    def _f1(self, va, vb) -> float:
        """Function 1 of two vectors (one counted evaluation)."""
        self.sim_cache.add(1)
        config = self.config
        return similarity(va, vb, config.path_method, config.path_mode)

    def semantic_distance(self, src: int, dst: int) -> float:
        """``sim(src, dst)`` from the stored semantic vectors (0 if unknown)."""
        store = self.constructor.vectors
        va = store.get(src)
        if va is None:
            return 0.0
        vb = store.get(dst)
        if vb is None:
            return 0.0
        return self._f1(va, vb)

    def correlation_degree(self, src: int, dst: int) -> float:
        """Function 2: ``R = sim·p + F·(1−p)``."""
        p = self.config.weight_p
        sim = self.semantic_distance(src, dst) if p > 0.0 else 0.0
        freq = self.constructor.graph.frequency(src, dst) if p < 1.0 else 0.0
        return sim * p + freq * (1.0 - p)

    def f1_evaluations(self) -> int:
        """Function-1 evaluations so far (under an injected counter, those
        of every miner sharing it)."""
        return self.sim_cache.stats().evaluations

    # ------------------------------------------------------------------
    # list maintenance
    # ------------------------------------------------------------------

    def _list_for(self, fid: int) -> CorrelatorList:
        lst = self._lists.get(fid)
        if lst is None:
            lst = CorrelatorList(
                threshold=self.config.max_strength,
                capacity=self.config.correlator_capacity,
            )
            self._lists[fid] = lst
        return lst

    def reevaluate(self, src: int) -> CorrelatorList:
        """Re-run Algorithm 1 for ``src``: evaluate every graph successor,
        filter by the validity threshold, keep the list sorted. Entries
        whose edge the graph has evicted are dropped (the stale-edge
        sweep falls out of ranking over the current successor set).
        Clears the dirty flag and records the graph tick ranked at.

        One pass: the similarities come from one
        :func:`~repro.vsm.similarity.similarity_row` (value- and
        count-identical to per-pair :meth:`semantic_distance`), and the
        list is materialised by a single sort/cut rebuild.
        """
        constructor = self.constructor
        node = constructor.graph.node_map().get(src)
        if node is not None:
            succ_fids = node.succ_fids
            succ_weights = node.succ_weights
            n_x = node.access_count
            tick = node.change_tick
        else:
            succ_fids = succ_weights = ()
            n_x = 0
            tick = 0
        self._edge_log.pop(src, None)
        lst = self._list_for(src)
        self._n_reevaluations += 1
        self._entries_scanned += len(succ_fids)
        config = self.config
        p = config.weight_p
        q = 1.0 - p
        vectors = constructor.vectors.vector_map()
        va = vectors.get(src) if p > 0.0 else None
        if va is None:
            sims = [0.0] * len(succ_fids)
        else:
            row = list(map(vectors.get, succ_fids))
            self.sim_cache.add(len(row) - row.count(None))
            sims = similarity_row(va, row, config.path_method, config.path_mode)
        if p < 1.0 and n_x:
            candidates = [
                (dst, sim * p + (1.0 if n_xy > n_x else n_xy / n_x) * q)
                for dst, n_xy, sim in zip(succ_fids, succ_weights, sims)
            ]
        else:
            candidates = [(dst, sim * p) for dst, sim in zip(succ_fids, sims)]
        lst.rebuild(candidates)
        self._dirty.discard(src)
        self._ranked_tick[src] = tick
        return lst

    def defer_edge(self, src: int, dst: int) -> None:
        """Log the refresh of a just-reinforced (src → dst) entry instead
        of running it.

        Nothing is recorded for a dirty ``src``: its list is rebuilt
        from current state before any query can see it. Otherwise the
        refresh's inputs as of now — both semantic vectors (immutable)
        and ``F(src, dst)`` — join ``src``'s edge log, which
        :meth:`_settle` replays into exactly the entry an immediate
        ``update(dst, correlation_degree(src, dst))`` would have
        inserted here.
        """
        if src in self._dirty:
            return
        p = self.config.weight_p
        if p > 0.0:
            store = self.constructor.vectors
            va = store.get(src)
            vb = store.get(dst)
        else:
            va = vb = None
        freq = self.constructor.graph.frequency(src, dst) if p < 1.0 else 0.0
        entry = (dst, va, vb, freq)
        log = self._edge_log.get(src)
        if log is None:
            self._edge_log[src] = [entry]
        else:
            log.append(entry)

    def _settle(self, src: int) -> None:
        """Replay ``src``'s pending edge refreshes, in arrival order, with
        :meth:`correlation_degree`'s arithmetic on the captured vectors."""
        log = self._edge_log.pop(src, None)
        if log is None:
            return
        lst = self._list_for(src)
        p = self.config.weight_p
        q = 1.0 - p
        for dst, va, vb, freq in log:
            sim = 0.0 if va is None or vb is None else self._f1(va, vb)
            lst.update(dst, sim * p + freq * q)

    def _settle_all(self) -> None:
        for src in list(self._edge_log):
            self._settle(src)

    # ------------------------------------------------------------------
    # dirty/lazy protocol
    # ------------------------------------------------------------------

    def mark_dirty(self, fid: int) -> None:
        """Note that ``fid``'s frequency denominators changed; the full
        re-rank is deferred to the first query of the list."""
        self._dirty.add(fid)

    def is_dirty(self, fid: int) -> bool:
        """Whether ``fid``'s list awaits its deferred re-rank."""
        return fid in self._dirty

    def n_dirty(self) -> int:
        """Number of lists awaiting a deferred re-rank."""
        return len(self._dirty)

    def dirty_nodes(self) -> list[int]:
        """The fids awaiting a deferred re-rank (a snapshot copy)."""
        return list(self._dirty)

    def query(self, fid: int) -> CorrelatorList | None:
        """The Correlator List of ``fid``, re-ranked first if dirty.

        This is the entry point the Sorter (and therefore ``correlators``
        / ``predict``) uses; every result it returns reflects a full
        Algorithm-1 pass over the current graph and vector state.
        """
        if fid in self._dirty:
            return self.reevaluate(fid)
        if fid in self._edge_log:
            self._settle(fid)
        return self._lists.get(fid)

    def flush_all(self) -> None:
        """Re-rank every dirty list and replay every pending edge log."""
        while self._dirty:
            self.reevaluate(next(iter(self._dirty)))
        self._settle_all()

    def flush_nodes(self, fids) -> None:
        """Batch-mode flush: re-rank exactly the given nodes, skipping
        any whose graph change tick has not moved since it was last
        ranked (``Farmer.mine`` collects the fids its batch touched and
        defers all list maintenance to one such pass at the end, so
        chunked mining costs O(touched), not O(graph))."""
        self.flush_nodes_report(fids)

    def flush_nodes_report(self, fids) -> dict[int, CorrelatorList]:
        """:meth:`flush_nodes` that also returns the re-ranked lists —
        the shard rebalance and standby sync ship exactly the lists it
        rebuilt."""
        nodes = self.constructor.graph.node_map()
        ranked = self._ranked_tick
        out: dict[int, CorrelatorList] = {}
        for fid in fids:
            node = nodes.get(fid)
            tick = node.change_tick if node is not None else 0
            if ranked.get(fid, 0) != tick:
                out[fid] = self.reevaluate(fid)
            else:
                self._dirty.discard(fid)
        return out

    def rank_for_read(self, fids) -> None:
        """Rank the lists of ``fids`` for a reader that must not move
        the lazy schedule (an aggregate read, the standby sync barrier).

        Runs :meth:`flush_nodes_report`, then puts every list it ranked
        back in the dirty set with its ranked tick forgotten, so the
        next flush or query ranks it again. Left in place, a mid-stream
        rank would freeze the list at this moment's vector state until
        the graph touches it again, and the read would change later
        answers.
        """
        dirty = self._dirty
        ranked = self._ranked_tick
        for fid in self.flush_nodes_report(fids):
            dirty.add(fid)
            ranked.pop(fid, None)

    # ------------------------------------------------------------------
    # migration (the shard-rebalancing seam)
    # ------------------------------------------------------------------

    def extract_state(self, fid: int) -> CorrelatorList | None:
        """Detach everything this miner holds for ``fid`` and return its
        Correlator List (``None`` if the file never grew one).

        Used when a shard rebalance migrates the fid elsewhere: list
        (with its edge log replayed), ranked tick and dirty flag all
        leave with it — call :meth:`flush_nodes` (or
        :meth:`flush_nodes_report`) first if the shipped list must be
        freshly ranked.
        """
        self._settle(fid)
        self._dirty.discard(fid)
        self._ranked_tick.pop(fid, None)
        return self._lists.pop(fid, None)

    def adopt_migrated(self, fid: int, lst: CorrelatorList, tick: int) -> None:
        """Install a list migrated from another shard as ``fid``'s
        authoritative state: any halo list/dirty flag this miner
        accumulated for the fid is discarded (the migrated list came
        from the owner; a pending edge log goes with it), and the
        ranked tick is pinned to ``tick`` (the migrated graph node's
        change tick) so the next flush re-ranks only if the node
        actually changes again.
        """
        self._lists[fid] = lst
        self._edge_log.pop(fid, None)
        self._ranked_tick[fid] = tick
        self._dirty.discard(fid)

    def __getstate__(self):
        # an empty edge log is left out of the pickle (every ingest-only
        # service's case) and restored on load, so snapshots written
        # without the field load too
        state = self.__dict__
        if not self._edge_log:
            state = {k: v for k, v in state.items() if k != "_edge_log"}
        return state

    def __setstate__(self, state) -> None:
        # setattr interns the names, as the default unpickling does (a
        # later pickle then shares them with every other object's keys)
        for name, value in state.items():
            setattr(self, name, value)
        if "_edge_log" not in state:
            self._edge_log = {}

    # ------------------------------------------------------------------
    # op accounting
    # ------------------------------------------------------------------

    def rerank_stats(self) -> RerankStats:
        """Re-rank op counters (what the perf benchmarks assert on)."""
        return RerankStats(
            n_reevaluations=self._n_reevaluations,
            entries_scanned=self._entries_scanned,
            entries_skipped_unchanged=0,
            insort_ops=sum(lst.insort_ops for lst in self._lists.values()),
        )

    # ------------------------------------------------------------------
    # views & accounting
    # ------------------------------------------------------------------

    def list_of(self, fid: int) -> CorrelatorList | None:
        """The Correlator List of ``fid`` with its edge log replayed, not
        re-ranked (None if the file has none yet; may be awaiting its
        deferred re-rank — use :meth:`query` for the re-ranked view)."""
        self._settle(fid)
        return self._lists.get(fid)

    def n_lists(self) -> int:
        """Number of files owning a Correlator List (a list a pending
        edge log would create counts; nothing is replayed)."""
        lists = self._lists
        return len(lists) + sum(1 for src in self._edge_log if src not in lists)

    def lists(self) -> dict[int, CorrelatorList]:
        """Live view of all lists, edge logs replayed (read-only use;
        call :meth:`flush_all` first if re-ranked results are
        required)."""
        self._settle_all()
        return self._lists

    def approx_bytes(self) -> int:
        """Footprint of all Correlator Lists, the dirty/ranked-tick
        bookkeeping and the pending edge logs (counted, never
        replayed)."""
        return (
            64
            + sum(104 + lst.approx_bytes() for lst in self._lists.values())
            + 56 * len(self._ranked_tick)
            + 32 * len(self._dirty)
            + sum(88 + 112 * len(log) for log in self._edge_log.values())
        )
