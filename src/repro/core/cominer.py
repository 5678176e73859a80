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

* **Versioned similarity cache** — ``sim(x, y)`` depends only on the two
  semantic vectors, which change rarely. :meth:`semantic_distance`
  consults a :class:`~repro.core.simcache.SimilarityCache` keyed by the
  pair's vector versions, so Function 1 reruns only when an endpoint's
  vector truly changed (a stale value is never served — version mismatch
  is a miss by construction).

* **Dirty lists, lazy re-rank** — a request for ``x`` changes the
  denominator of every ``F(x, ·)``, so the whole list of ``x`` is stale;
  instead of re-running Algorithm 1 immediately, ``observe`` calls
  :meth:`mark_dirty` and the full re-rank + stale-edge sweep is deferred
  to the first *query* of the list (:meth:`query` / :meth:`flush_all`).
  Reinforced edges (``pred → x`` for predecessors in the window) only
  move one entry, so they are refreshed eagerly via
  :meth:`reevaluate_edge` — exactly the schedule the eager miner runs,
  which keeps lazy and eager query results identical when queries follow
  the triggering request.

* **Change ticks** — the graph stamps every node with a monotonic
  :meth:`~repro.graph.correlation_graph.CorrelationGraph.change_tick`;
  :meth:`reevaluate` records the tick it ranked at, and
  :meth:`flush_nodes` (the batch-``mine`` path) re-ranks exactly the
  touched nodes whose tick moved since they were last ranked.

One-pass re-rank kernel (``FarmerConfig.rerank_kernel``)
--------------------------------------------------------

``reevaluate`` is the hottest loop in the system, and the default
"bulk" kernel runs it as one measurable pass instead of d independent
``update``/``insort`` calls:

* the source's vector/version and access count are resolved **once**;
* per successor, an *entry stamp* ``(vector-version pair, N_xy, N_x)``
  is compared against the inputs of the last rank — an exact match
  reuses the stored degree outright (both Function 1 and Function 2
  skipped), a version-pair match alone reuses the stored similarity
  (Function 1 skipped, only the frequency blend recomputed);
* the remaining successors go to the versioned cache as one row
  consult (:meth:`~repro.core.simcache.SimilarityCache.consult_row`, the
  same call :meth:`semantic_distances` makes): the cache lock is taken
  once per re-rank, and IPA(bag) is computed inline on each miss. The
  values, cache counters and LRU order equal a per-pair
  :meth:`semantic_distance` schedule; a hypothesis property test
  (``tests/core/test_rerank_kernel.py::TestRowConsultEquivalence``)
  pins this across cache capacities, shared/private caches and every
  path method and mode;
* the list is materialised by a single
  :meth:`~repro.graph.correlator_list.CorrelatorList.rebuild` (sort +
  threshold/capacity cut, O(d log d)) instead of d binary insertions.

``rerank_kernel="entrywise"`` keeps the per-entry reference path
(bit-for-bit identical output, property-tested);
``incremental_rerank=False`` disables the stamps. The op counters in
:class:`RerankStats` let benchmarks assert the work reduction instead
of poking internals.

Ranking contract (both kernels): a re-ranked list is a pure function of
the file's *current* successor set — the top-capacity degrees above the
threshold. Stale entries and stale degrees never interact with the
capacity cut.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.core.config import FarmerConfig
from repro.core.constructor import GraphConstructor
from repro.core.simcache import SimCacheStats, SimilarityCache
from repro.errors import ConfigError
from repro.graph.correlator_list import CorrelatorList
from repro.vsm.similarity import dpa_similarity, ipa_similarity
from repro.vsm.vector import bag_intersection

try:  # numpy is optional: only the "array" kernel needs it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

__all__ = ["CoMiner", "RerankStats"]

# Soft cap on the array kernel's path-pair intersection memo; on
# overflow it is cleared wholesale (values are pure functions of the
# keys, so eviction policy only affects speed).
_PATH_MEMO_CAP = 200_000


def _ipa_prefix(a, b) -> float:
    return ipa_similarity(a, b, "prefix")


def _row_kernel(config: FarmerConfig):
    """The Function-1 kernel a cache row consult runs: ``None`` (IPA in
    bag mode, which the consult inlines) or a ``(va, vb)`` function."""
    if config.path_method == "dpa":
        return dpa_similarity
    return None if config.path_mode == "bag" else _ipa_prefix


class _RankRecord:
    """The array kernel's memo of one source's last full rank.

    Holds the similarity row and the exact inputs it was computed from,
    so the next flush of the same source can reuse Function-1 work
    without any per-pair cache traffic:

    * ``node`` is the live :class:`NodeState` *by identity* — a record
      only ever validates against the very object it was computed from,
      which makes it immune to tick/version coincidences across
      ``pop_node``/``adopt_node`` replacements;
    * ``change_tick`` + ``vec_epoch`` unchanged ⇒ every input of the
      list is provably unchanged ⇒ the whole re-rank is skipped;
    * ``succ_version`` + ``ver_a`` unchanged ⇒ the successor slots are
      aligned with the stored row ⇒ sims are reused wholesale (same
      vector-store epoch) or per-entry by destination version;
    * ``sims is None`` encodes the all-zeros row (``p == 0`` or no
      source vector) without storing it.
    """

    __slots__ = (
        "node",
        "change_tick",
        "succ_version",
        "vec_epoch",
        "ver_a",
        "n_x",
        "ver_b",
        "sims",
        "n_xy",
    )

    def __init__(
        self, node, change_tick, succ_version, vec_epoch, ver_a, n_x,
        ver_b, sims, n_xy,
    ):
        self.node = node
        self.change_tick = change_tick
        self.succ_version = succ_version
        self.vec_epoch = vec_epoch
        self.ver_a = ver_a
        self.n_x = n_x
        self.ver_b = ver_b  # list of dst versions, or None (zeros row)
        self.sims = sims  # list of floats aligned with node slots, or None
        self.n_xy = n_xy  # array('d') copy of succ_weights at rank time


@dataclass(frozen=True, slots=True)
class RerankStats:
    """Operation counters of the re-rank hot path (since construction).

    Attributes:
        n_reevaluations: full Algorithm-1 re-ranks performed.
        entries_scanned: successor entries examined across all re-ranks.
        entries_skipped_unchanged: entries whose stamp matched every
            input — degree reused, Function 1 and Function 2 skipped.
        insort_ops: binary insertions into Correlator Lists (the bulk
            kernel performs none during a re-rank; the eager single-edge
            refresh path still insorts).
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
        sim_cache: SimilarityCache | None = None,
    ) -> None:
        self.config = config
        self.constructor = constructor
        # ``sim_cache`` may be injected (a SharedSimilarityCache) so all
        # shards of a sharded deployment reuse each other's Function-1 work
        self.sim_cache = (
            sim_cache if sim_cache is not None else SimilarityCache(config.sim_cache_capacity)
        )
        self.owns_sim_cache = sim_cache is None
        self._lists: dict[int, CorrelatorList] = {}
        self._dirty: set[int] = set()
        self._ranked_tick: dict[int, int] = {}
        # src -> dst -> (ver_src, ver_dst, n_xy, n_x, sim, degree): the
        # inputs and outputs of the last rank, pruned to the current
        # successor set on every bulk re-rank
        self._stamps: dict[int, dict[int, tuple]] = {}
        self._bulk = config.rerank_kernel == "bulk"
        self._array = config.rerank_kernel == "array"
        if self._array and _np is None:
            raise ConfigError(
                "rerank_kernel='array' requires numpy, which is not "
                "installed; use the pure-python 'bulk' kernel instead"
            )
        self._incremental = self._bulk and config.incremental_rerank
        # array-kernel state: per-source rank records (see _RankRecord),
        # the bulk kernel's (tick, epoch) whole-list-skip stamps, and the
        # persistent path-pair intersection memo the inlined IPA uses
        self._rank_records: dict[int, _RankRecord] = {}
        self._ranked_epoch: dict[int, int] = {}
        self._path_memo: dict[tuple, float] = {}
        self._n_reevaluations = 0
        self._entries_scanned = 0
        self._entries_skipped = 0

    # ------------------------------------------------------------------
    # degree evaluation
    # ------------------------------------------------------------------

    def semantic_distance(self, src: int, dst: int) -> float:
        """``sim(src, dst)`` from the stored semantic vectors (0 if unknown).

        Served from the versioned cache when both endpoints' vectors are
        unchanged since the pair was last evaluated.
        """
        vectors, versions = self.constructor.vectors.maps()
        va = vectors.get(src)
        if va is None:
            return 0.0
        vb = vectors.get(dst)
        if vb is None:
            return 0.0
        ver_a = versions[src]
        ver_b = versions[dst]
        cached = self.sim_cache.lookup(src, dst, ver_a, ver_b)
        if cached is not None:
            return cached
        config = self.config
        value = (
            ipa_similarity(va, vb, config.path_mode)
            if config.path_method == "ipa"
            else dpa_similarity(va, vb)
        )
        self.sim_cache.store(src, dst, ver_a, ver_b, value)
        return value

    def semantic_distances(self, src: int, dsts) -> list[float]:
        """Batch Function 1: ``sim(src, dst)`` for every dst, in order.

        The dsts with a vector go to the cache in one
        :meth:`~repro.core.simcache.SimilarityCache.consult_row` — the
        same row consult :meth:`_reevaluate_bulk` issues — so the values,
        cache counters and LRU order equal per-pair
        :meth:`semantic_distance` calls.
        """
        vectors, versions = self.constructor.vectors.maps()
        va = vectors.get(src)
        if va is None:
            return [0.0 for _ in dsts]
        vbs = [vectors.get(dst) for dst in dsts]
        row = [
            (dst, versions[dst], vb) for dst, vb in zip(dsts, vbs) if vb is not None
        ]
        computed = iter(
            self.sim_cache.consult_row(
                src, versions[src], va, row, _row_kernel(self.config)
            )
        )
        return [0.0 if vb is None else next(computed) for vb in vbs]

    def correlation_degree(self, src: int, dst: int) -> float:
        """Function 2: ``R = sim·p + F·(1−p)``."""
        p = self.config.weight_p
        sim = self.semantic_distance(src, dst) if p > 0.0 else 0.0
        freq = self.constructor.graph.frequency(src, dst) if p < 1.0 else 0.0
        return sim * p + freq * (1.0 - p)

    def sim_cache_stats(self) -> SimCacheStats:
        """Similarity-cache counters (misses = Function-1 computations)."""
        return self.sim_cache.stats()

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
        Clears the dirty flag and records the graph tick ranked at."""
        if self._bulk:
            return self._reevaluate_bulk(src)
        if self._array:
            self._flush_array((src,))
            return self._lists[src]
        return self._reevaluate_entrywise(src)

    def _reevaluate_bulk(self, src: int) -> CorrelatorList:
        """One-pass kernel: stamps skip unchanged successors, the
        remaining similarities come from one cache row consult (the
        call :meth:`semantic_distances` makes; counter- and
        LRU-order-identical to per-pair :meth:`semantic_distance`, see
        ``TestRowConsultEquivalence``), and the list is materialised by
        a single sort/cut rebuild.

        Stamps are recorded from a file's first *re*-rank on: a one-shot
        batch ranks every file exactly once, and allocating stamps it
        will never read is measurable at that scale.
        """
        constructor = self.constructor
        store = constructor.vectors
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
        d = len(succ_fids)
        if self._incremental:
            last_epoch = self._ranked_epoch.get(src)
            if (
                last_epoch is not None
                and last_epoch == store.epoch()
                and self._ranked_tick.get(src) == tick
                and src in self._lists
            ):
                # node tick and vector epoch both unchanged since the
                # last rank: every input of the list is provably the
                # same, skip the candidate scan outright (counters
                # advance as if scanned, preserving cross-kernel parity)
                self._n_reevaluations += 1
                self._entries_scanned += d
                self._entries_skipped += d
                self._dirty.discard(src)
                return self._lists[src]
        lst = self._list_for(src)
        self._n_reevaluations += 1
        self._entries_scanned += d
        config = self.config
        p = config.weight_p
        q = 1.0 - p
        use_sim = p > 0.0
        use_freq = p < 1.0
        vectors, versions = store.maps()
        va = vectors.get(src)
        ver_a = versions[src] if va is not None else 0
        want_f1 = use_sim and va is not None
        stamps = self._stamps.get(src) if self._incremental else None
        record_stamps = self._incremental and (
            stamps is not None or src in self._ranked_tick
        )
        new_stamps: dict[int, tuple] = {}
        candidates: list[tuple[int, float]] = []
        skipped = 0
        # every stamp of a list carries the source version it was
        # ranked at, so a moved source vector invalidates them all
        live = (
            stamps
            if stamps is not None and next(iter(stamps.values()))[0] == ver_a
            else None
        )
        # stamp pass: settle what the stamps can; ``sim is None`` marks
        # the successors whose Function 1 goes to the cache row consult
        pending: list[tuple] = []
        row: list[tuple] = []
        for dst, n_xy in zip(succ_fids, succ_weights):
            ver_b = versions.get(dst, 0)
            sim = None
            if live is not None:
                st = live.get(dst)
                if st is not None and st[1] == ver_b:
                    if st[2] == n_xy and st[3] == n_x:
                        # every input unchanged since the last rank:
                        # reuse the degree, skip Functions 1 and 2
                        skipped += 1
                        candidates.append((dst, st[5]))
                        new_stamps[dst] = st
                        continue
                    sim = st[4]  # vectors unchanged: Function 1 skipped
            if sim is None:
                vb = vectors.get(dst) if want_f1 else None
                if vb is None:
                    sim = 0.0
                else:
                    row.append((dst, ver_b, vb))
            pending.append((dst, n_xy, ver_b, sim))
        if row:
            computed = iter(
                self.sim_cache.consult_row(src, ver_a, va, row, _row_kernel(config))
            )
        for dst, n_xy, ver_b, sim in pending:
            if sim is None:
                sim = next(computed)
            if use_freq and n_x:
                freq = n_xy / n_x
                if freq > 1.0:
                    freq = 1.0
            else:
                freq = 0.0
            degree = sim * p + freq * q
            candidates.append((dst, degree))
            if record_stamps:
                new_stamps[dst] = (ver_a, ver_b, n_xy, n_x, sim, degree)
        lst.rebuild(candidates)
        if record_stamps and new_stamps:
            self._stamps[src] = new_stamps
        elif stamps is not None and not new_stamps:
            self._stamps.pop(src, None)
        self._entries_skipped += skipped
        self._dirty.discard(src)
        self._ranked_tick[src] = tick
        if self._incremental:
            self._ranked_epoch[src] = store.epoch()
        return lst

    def _reevaluate_entrywise(self, src: int) -> CorrelatorList:
        """Reference kernel: clear, then offer every successor through
        ``CorrelatorList.update`` (one binary insertion each). Output is
        bit-for-bit identical to the bulk kernel — both rank the current
        successor set from scratch — which the property tests pin."""
        successors = self.constructor.graph.successors(src)
        lst = self._list_for(src)
        self._n_reevaluations += 1
        self._entries_scanned += len(successors)
        for fid in [e.fid for e in lst.entries()]:
            lst.discard(fid)
        for dst in successors:
            lst.update(dst, self.correlation_degree(src, dst))
        self._dirty.discard(src)
        self._ranked_tick[src] = self.constructor.graph.change_tick(src)
        return lst

    def _flush_array(self, fids, out=None):
        """The "array" kernel: rank every given source in one vectorized
        batch (Algorithm 1 over the union of their successor sets).

        One assembly pass gathers each node's flat successor slices
        (``succ_fids``/``succ_weights`` extend locally-owned buffers — a
        C memcpy each) and the Function-1 similarity row (reused from
        the source's :class:`_RankRecord` when versions allow, else
        computed inline with a persistent path-pair memo); then numpy
        evaluates Function 2 over the whole concatenated batch at once —
        ``R = sim·p + min(N_xy/N_x, 1)·q`` elementwise, with an ``inf``
        divisor encoding the freq=0 cases so the arithmetic (and its
        IEEE rounding) matches the scalar kernels bit-for-bit — and each
        list is materialised by one rebuild over its slice.

        Unlike the scalar kernels this path never touches the shared
        similarity cache: the rank records are its memo (one row per
        source, validated by node identity + versions), which keeps the
        hot loop free of per-pair dict traffic. Counters advance exactly
        as the bulk kernel's would (reevaluations, scanned; a provably
        unchanged list is skipped whole with ``entries_skipped_unchanged``
        advancing by its length).

        When ``out`` is a dict, every flushed source's list is recorded
        in it (the :meth:`flush_nodes_report` contract).
        """
        np = _np
        constructor = self.constructor
        nodes = constructor.graph.node_map()
        store = constructor.vectors
        vectors, versions = store.maps()
        epoch = store.epoch()
        config = self.config
        p = config.weight_p
        q = 1.0 - p
        use_sim = p > 0.0
        use_freq = p < 1.0
        inline_ipa = config.path_method == "ipa" and config.path_mode == "bag"
        if inline_ipa:
            sim_fn = None
        elif config.path_method == "ipa":
            mode = config.path_mode
            sim_fn = lambda a, b: ipa_similarity(a, b, mode)
        else:
            sim_fn = dpa_similarity
        records = self._rank_records
        ranked = self._ranked_tick
        lists = self._lists
        dirty_discard = self._dirty.discard
        vget = vectors.get
        pmemo = self._path_memo
        if len(pmemo) > _PATH_MEMO_CAP:
            pmemo.clear()
        inf = float("inf")

        # assembly buffers: one contiguous batch across all sources
        all_w = array("d")
        all_f = array("q")
        sims: list[float] = []
        sims_append = sims.append
        nx_div: list[float] = []
        lens: list[int] = []
        meta: list[tuple] = []
        n_re = 0
        n_scanned = 0
        n_skipped = 0

        for src in fids:
            node = nodes.get(src)
            d = len(node.succ_fids) if node is not None else 0
            if d == 0:
                lst = self._list_for(src)
                lst.rebuild(())
                n_re += 1
                dirty_discard(src)
                ranked[src] = node.change_tick if node is not None else 0
                records.pop(src, None)
                if out is not None:
                    out[src] = lst
                continue
            tick = node.change_tick
            rec = records.get(src)
            if rec is not None and rec.node is not node:
                # the graph replaced the node object (pop/adopt); the
                # record described a different object's counters
                records.pop(src)
                rec = None
            if (
                rec is not None
                and rec.change_tick == tick
                and rec.vec_epoch == epoch
            ):
                # every input of the list is provably unchanged since
                # its last rank: skip the scan whole (counter parity)
                n_re += 1
                n_scanned += d
                n_skipped += d
                dirty_discard(src)
                ranked[src] = tick
                if out is not None:
                    out[src] = lists[src]
                continue
            n_re += 1
            n_scanned += d
            n_x = node.access_count
            va = vget(src)
            ver_a = versions[src] if va is not None else 0
            succ_fids = node.succ_fids
            succ_w = node.succ_weights
            all_f.extend(succ_fids)
            all_w.extend(succ_w)
            nx_div.append(float(n_x) if (use_freq and n_x) else inf)
            lens.append(d)
            record_it = rec is not None or src in ranked
            ver_b: list | None = None
            zeros = False
            pre_skipped = 0
            if not use_sim or va is None:
                # the all-zeros similarity row (recorded as sims=None)
                sims.extend((0.0,) * d)
                zeros = True
            elif (
                rec is not None
                and rec.succ_version == node.succ_version
                and rec.ver_a == ver_a
                and rec.sims is not None
            ):
                rec_sims = rec.sims
                if rec.vec_epoch == epoch:
                    # no vector anywhere changed since the record: the
                    # whole similarity row is still exact
                    sims.extend(rec_sims)
                    ver_b = rec.ver_b
                    if n_x == rec.n_x:
                        cur = np.frombuffer(succ_w, dtype=np.float64)
                        old = np.frombuffer(rec.n_xy, dtype=np.float64)
                        pre_skipped = int(np.count_nonzero(cur == old))
                else:
                    # some vector moved: reuse sims whose destination
                    # version is unchanged, recompute the rest
                    rec_verb = rec.ver_b
                    rec_nxy = rec.n_xy
                    nx_same = n_x == rec.n_x
                    new_verb: list = []
                    verb_append = new_verb.append
                    for k in range(d):
                        dst = succ_fids[k]
                        vb = vget(dst)
                        if vb is None:
                            nv = 0
                            s = 0.0
                            reused = rec_verb[k] == 0
                        else:
                            nv = versions[dst]
                            if nv == rec_verb[k]:
                                s = rec_sims[k]
                                reused = True
                            else:
                                s = (
                                    self._ipa_bag(va, vb, pmemo)
                                    if inline_ipa
                                    else sim_fn(va, vb)
                                )
                                reused = False
                        verb_append(nv)
                        sims_append(s)
                        if reused and nx_same and succ_w[k] == rec_nxy[k]:
                            pre_skipped += 1
                    ver_b = new_verb
            else:
                # full Function-1 row
                if record_it:
                    ver_b = []
                    verb_append = ver_b.append
                if inline_ipa:
                    na = va.n_ipa
                    sa = va._scalar_set
                    if sa is None:
                        sa = va.scalar_set
                    pa = va.path_ids
                    spa = va.sorted_path if pa else None
                    lpa = len(pa) if pa else 0
                    for dst in succ_fids:
                        vb = vget(dst)
                        if vb is None:
                            sims_append(0.0)
                            if record_it:
                                verb_append(0)
                            continue
                        nb = vb.n_ipa
                        denom = na if na >= nb else nb
                        if denom == 0:
                            s = 0.0
                        else:
                            sb = vb._scalar_set
                            if sb is None:
                                sb = vb.scalar_set
                            hits = float(len(sa & sb))
                            pb = vb.path_ids
                            if pa and pb:
                                key = (spa, vb.sorted_path)
                                h = pmemo.get(key)
                                if h is None:
                                    lpb = len(pb)
                                    h = bag_intersection(spa, key[1]) / (
                                        lpa if lpa >= lpb else lpb
                                    )
                                    pmemo[key] = h
                                hits += h
                            s = hits / denom
                        sims_append(s)
                        if record_it:
                            verb_append(versions[dst])
                else:
                    for dst in succ_fids:
                        vb = vget(dst)
                        if vb is None:
                            sims_append(0.0)
                            if record_it:
                                verb_append(0)
                        else:
                            sims_append(sim_fn(va, vb))
                            if record_it:
                                verb_append(versions[dst])
            meta.append(
                (src, node, tick, d, record_it, ver_a, n_x, ver_b, zeros,
                 pre_skipped)
            )

        if meta:
            # Function 2 over the whole batch. Per entry the arithmetic
            # is (sim*p) + (min(n_xy/n_x, 1.0)*q) in exactly the scalar
            # kernels' operation order, so IEEE rounding agrees; the inf
            # divisor yields +0.0 for the n_x==0 / p==1 cases, matching
            # their freq=0.0 branch bit-for-bit.
            w = np.frombuffer(all_w, dtype=np.float64)
            fid_view = np.frombuffer(all_f, dtype=np.int64)
            sims_arr = np.array(sims, dtype=np.float64)
            divisors = np.repeat(
                np.array(nx_div, dtype=np.float64), np.array(lens)
            )
            freqs = w / divisors
            np.minimum(freqs, 1.0, out=freqs)
            degrees = sims_arr * p
            degrees += freqs * q
            pos = 0
            for (src, node, tick, d, record_it, ver_a, n_x, ver_b, zeros,
                 pre_skipped) in meta:
                end = pos + d
                lst = self._list_for(src)
                if d >= 64 and d > lst.capacity:
                    lst.rebuild_arrays(fid_view[pos:end], degrees[pos:end])
                else:
                    lst.rebuild(zip(node.succ_fids, degrees[pos:end].tolist()))
                if record_it:
                    records[src] = _RankRecord(
                        node,
                        tick,
                        node.succ_version,
                        epoch,
                        ver_a,
                        n_x,
                        ver_b,
                        None if zeros else sims[pos:end],
                        node.succ_weights[:],
                    )
                n_skipped += pre_skipped
                dirty_discard(src)
                ranked[src] = tick
                if out is not None:
                    out[src] = lst
                pos = end
        self._n_reevaluations += n_re
        self._entries_scanned += n_scanned
        self._entries_skipped += n_skipped
        return out

    @staticmethod
    def _ipa_bag(va, vb, pmemo) -> float:
        """One IPA(bag) similarity with the path-pair memo (the cold
        path of the per-entry reuse loop; mirrors ``ipa_similarity``)."""
        na = va.n_ipa
        nb = vb.n_ipa
        denom = na if na >= nb else nb
        if denom == 0:
            return 0.0
        sa = va._scalar_set
        if sa is None:
            sa = va.scalar_set
        sb = vb._scalar_set
        if sb is None:
            sb = vb.scalar_set
        hits = float(len(sa & sb))
        pa = va.path_ids
        pb = vb.path_ids
        if pa and pb:
            key = (va.sorted_path, vb.sorted_path)
            h = pmemo.get(key)
            if h is None:
                lpa = len(pa)
                lpb = len(pb)
                h = bag_intersection(key[0], key[1]) / (
                    lpa if lpa >= lpb else lpb
                )
                pmemo[key] = h
            hits += h
        return hits / denom

    def reevaluate_edge(self, src: int, dst: int) -> None:
        """Refresh a single (src → dst) entry after an edge reinforcement."""
        self._list_for(src).update(dst, self.correlation_degree(src, dst))

    # ------------------------------------------------------------------
    # dirty/lazy protocol
    # ------------------------------------------------------------------

    def mark_dirty(self, fid: int) -> None:
        """Note that ``fid``'s frequency denominators changed; the full
        re-rank is deferred to the first query of the list."""
        self._dirty.add(fid)

    def demote_rank(self, fid: int) -> None:
        """Forget that ``fid`` was ranked: mark it dirty and drop its
        rank stamps, so the next flush or query re-ranks it even though
        the graph tick has not moved.

        The replication barrier uses this to stay invisible: it ranks
        dirty lists mid-stream so the standby ships barrier-exact state,
        but the primary's own schedule must still re-rank them at query
        time — the tick-skip in :meth:`flush_nodes` would otherwise
        serve the barrier-time degrees after later vector updates.
        Per-edge stamps are kept (they validate against live versions,
        so unchanged edges still skip Functions 1 and 2 on the re-rank).
        """
        self._dirty.add(fid)
        self._ranked_tick.pop(fid, None)
        self._ranked_epoch.pop(fid, None)

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
        return self._lists.get(fid)

    def flush_all(self) -> None:
        """Re-rank every dirty list (aggregate queries call this first)."""
        if self._array:
            while self._dirty:
                self._flush_array(sorted(self._dirty))
            return
        while self._dirty:
            self.reevaluate(next(iter(self._dirty)))

    def flush_nodes(self, fids) -> None:
        """Batch-mode flush: re-rank exactly the given nodes, skipping
        any whose graph change tick has not moved since it was last
        ranked (``Farmer.mine`` collects the fids its batch touched and
        defers all list maintenance to one such pass at the end, so
        chunked mining costs O(touched), not O(graph)). The array kernel
        ranks the survivors as one vectorized batch."""
        nodes = self.constructor.graph.node_map()
        ranked = self._ranked_tick
        if self._array:
            todo = []
            append = todo.append
            discard = self._dirty.discard
            for fid in fids:
                node = nodes.get(fid)
                tick = node.change_tick if node is not None else 0
                if ranked.get(fid, 0) != tick:
                    append(fid)
                else:
                    discard(fid)
            if todo:
                self._flush_array(todo)
            return
        for fid in fids:
            node = nodes.get(fid)
            tick = node.change_tick if node is not None else 0
            if ranked.get(fid, 0) != tick:
                self.reevaluate(fid)
            else:
                self._dirty.discard(fid)

    def flush_graph_changes(self) -> None:
        """Full resync: re-rank every node in the graph whose change
        tick moved since it was last ranked. O(graph) — prefer
        :meth:`flush_nodes` when the touched set is known."""
        self.flush_nodes(self.constructor.graph.nodes())
        self._dirty.clear()

    # ------------------------------------------------------------------
    # parallel-runner seam
    # ------------------------------------------------------------------

    def flush_nodes_report(self, fids) -> dict[int, CorrelatorList]:
        """:meth:`flush_nodes` that also returns the re-ranked lists —
        the process-backend worker entry point: the worker flushes a
        pickled snapshot and ships exactly the lists it rebuilt back."""
        graph = self.constructor.graph
        ranked = self._ranked_tick
        out: dict[int, CorrelatorList] = {}
        if self._array:
            todo = []
            for fid in fids:
                if ranked.get(fid, 0) != graph.change_tick(fid):
                    todo.append(fid)
                else:
                    self._dirty.discard(fid)
            if todo:
                self._flush_array(todo, out)
            return out
        for fid in fids:
            if ranked.get(fid, 0) != graph.change_tick(fid):
                out[fid] = self.reevaluate(fid)
            else:
                self._dirty.discard(fid)
        return out

    def adopt_ranked(self, lists: dict[int, CorrelatorList], fids) -> None:
        """Install lists re-ranked elsewhere (a process worker) as if
        :meth:`flush_nodes` over ``fids`` had run here: lists replaced,
        dirty flags cleared, ranked ticks stamped at the current graph
        state. The worker's stamp/cache side-state stays behind — stamps
        are validated against live inputs, so losing them costs a
        recomputation, never correctness."""
        graph = self.constructor.graph
        for fid, lst in lists.items():
            self._lists[fid] = lst
            self._ranked_tick[fid] = graph.change_tick(fid)
            self._ranked_epoch.pop(fid, None)
        for fid in fids:
            self._dirty.discard(fid)

    # ------------------------------------------------------------------
    # migration (the shard-rebalancing seam)
    # ------------------------------------------------------------------

    def extract_state(self, fid: int) -> CorrelatorList | None:
        """Detach everything this miner holds for ``fid`` and return its
        Correlator List (``None`` if the file never grew one).

        Used when a shard rebalance migrates the fid elsewhere: list,
        re-rank stamps, ranked tick and dirty flag all leave with it —
        call :meth:`flush_nodes` (or :meth:`flush_nodes_report`) first
        if the shipped list must be freshly ranked.
        """
        self._dirty.discard(fid)
        self._ranked_tick.pop(fid, None)
        self._stamps.pop(fid, None)
        self._rank_records.pop(fid, None)
        self._ranked_epoch.pop(fid, None)
        return self._lists.pop(fid, None)

    def adopt_migrated(self, fid: int, lst: CorrelatorList, tick: int) -> None:
        """Install a list migrated from another shard as ``fid``'s
        authoritative state: any halo list/stamps/dirty flag this miner
        accumulated for the fid are discarded (the migrated list came
        from the owner), and the ranked tick is pinned to ``tick`` (the
        migrated graph node's change tick) so the next flush re-ranks
        only if the node actually changes again. Stamps are dropped
        rather than shipped — they are validated against live inputs, so
        losing them costs a recomputation, never correctness.
        """
        self._lists[fid] = lst
        self._ranked_tick[fid] = tick
        self._stamps.pop(fid, None)
        self._rank_records.pop(fid, None)
        self._ranked_epoch.pop(fid, None)
        self._dirty.discard(fid)

    # ------------------------------------------------------------------
    # op accounting
    # ------------------------------------------------------------------

    def rerank_stats(self) -> RerankStats:
        """Re-rank op counters (what the perf benchmarks assert on)."""
        return RerankStats(
            n_reevaluations=self._n_reevaluations,
            entries_scanned=self._entries_scanned,
            entries_skipped_unchanged=self._entries_skipped,
            insort_ops=sum(lst.insort_ops for lst in self._lists.values()),
        )

    # ------------------------------------------------------------------
    # views & accounting
    # ------------------------------------------------------------------

    def list_of(self, fid: int) -> CorrelatorList | None:
        """The Correlator List of ``fid`` as-is (None if the file has none
        yet; may be awaiting its deferred re-rank — use :meth:`query` for
        the re-ranked view)."""
        return self._lists.get(fid)

    def n_lists(self) -> int:
        """Number of files owning a Correlator List."""
        return len(self._lists)

    def lists(self) -> dict[int, CorrelatorList]:
        """Live view of all lists (read-only use; call :meth:`flush_all`
        first if re-ranked results are required)."""
        return self._lists

    def approx_bytes(self) -> int:
        """Footprint of all Correlator Lists plus the similarity cache
        (only when owned — a shared cache is accounted once by its
        owner), the dirty/ranked-tick bookkeeping and the re-rank
        stamps."""
        return (
            64
            + sum(104 + lst.approx_bytes() for lst in self._lists.values())
            + (self.sim_cache.approx_bytes() if self.owns_sim_cache else 0)
            + 56 * len(self._ranked_tick)
            + 56 * len(self._ranked_epoch)
            + 32 * len(self._dirty)
            + sum(88 + 144 * len(d) for d in self._stamps.values())
            + sum(
                160 + 48 * len(r.n_xy)
                for r in self._rank_records.values()
            )
        )
