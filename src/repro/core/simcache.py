"""Versioned similarity cache for the CoMiner hot path.

Function 1 (``sim(x, y)``) is a pure function of the two files' semantic
vectors, and vectors only change when a file's attributes change — yet the
eager miner recomputes it for every graph successor on every request. The
cache stores each pair's similarity together with the *vector versions*
it was computed from (see :meth:`repro.core.vector_store.VectorStore.
version_of`); a lookup hits only when both endpoints' versions still
match, so a stale value is never served, without any explicit
invalidation traffic.

``sim`` is symmetric, so entries are keyed on the unordered pair.
Capacity is bounded with LRU eviction; :class:`SimCacheStats` exposes
hits/misses/stale/evictions so benchmarks can report the hit rate.
A capacity of 0 disables caching entirely (every lookup is a miss and
nothing is stored) — useful as the eager baseline in benchmarks.

:meth:`SimilarityCache.consult_row` is the batch form the re-rank hot
path uses: one source against a row of destinations in a single pass,
with Function 1 computed inline on each miss. It leaves the values,
counters and LRU order exactly as the equivalent sequence of
:meth:`~SimilarityCache.lookup`/:meth:`~SimilarityCache.store` calls
would (``tests/core/test_rerank_kernel.py::TestRowConsultEquivalence``).

:class:`SharedSimilarityCache` is the multi-shard variant: one instance
serves every shard of a :class:`~repro.service.ShardedFarmer` behind a
lock. Version keys make the sharing safe — the service keeps a single
namespace-global :class:`~repro.core.vector_store.VectorStore`, so a
``(pair, versions)`` entry stored by one shard is exact for every other
shard, and a shard whose endpoint moved on simply misses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.vsm.vector import bag_intersection

__all__ = ["SimilarityCache", "SharedSimilarityCache", "SimCacheStats"]


@dataclass(frozen=True, slots=True)
class SimCacheStats:
    """Counters of one :class:`SimilarityCache` (since construction)."""

    hits: int
    misses: int
    stale: int
    evictions: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class SimilarityCache:
    """Bounded LRU cache of ``sim(x, y)`` keyed by vector versions.

    A miss is counted whenever the caller must recompute Function 1 —
    either the pair is absent, or it is present but one endpoint's vector
    version moved on (counted separately as ``stale``, and also a miss).
    """

    __slots__ = ("capacity", "_entries", "_hits", "_misses", "_stale", "_evictions")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 0:
            raise ConfigError("similarity cache capacity must be >= 0")
        self.capacity = capacity
        # (lo, hi) fid pair -> (lo_version, hi_version, sim value); a
        # plain insertion-ordered dict doubles as the LRU queue (refresh
        # = delete + reinsert), measurably cheaper than OrderedDict on
        # the store-heavy batch-flush path
        self._entries: dict[tuple[int, int], tuple[int, int, float]] = {}
        self._hits = 0
        self._misses = 0
        self._stale = 0
        self._evictions = 0

    def lookup(self, a: int, b: int, ver_a: int, ver_b: int) -> float | None:
        """Cached ``sim(a, b)`` if computed from exactly these versions."""
        if a > b:
            a, b = b, a
            ver_a, ver_b = ver_b, ver_a
        key = (a, b)
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        if entry[0] != ver_a or entry[1] != ver_b:
            self._misses += 1
            self._stale += 1
            return None
        self._hits += 1
        del self._entries[key]  # LRU refresh: move to the young end
        self._entries[key] = entry
        return entry[2]

    def store(self, a: int, b: int, ver_a: int, ver_b: int, value: float) -> None:
        """Record ``sim(a, b)`` as computed from the given versions."""
        if self.capacity == 0:
            return
        if a > b:
            a, b = b, a
            ver_a, ver_b = ver_b, ver_a
        key = (a, b)
        entries = self._entries
        if key in entries:
            del entries[key]  # reinsert at the young end
            entries[key] = (ver_a, ver_b, value)
            return
        entries[key] = (ver_a, ver_b, value)
        if len(entries) > self.capacity:
            entries.pop(next(iter(entries)))
            self._evictions += 1

    def consult_row(self, a: int, ver_a: int, va, row, compute=None) -> list[float]:
        """``sim(a, b)`` for every ``(b, ver_b, vb)`` of ``row``, in order.

        Each pair is probed at exactly these versions; a hit is served
        and LRU-refreshed, a miss is computed and stored. Values,
        counters and LRU order end up exactly as after a
        :meth:`lookup` — then, on a miss, :meth:`store` — per pair.

        ``compute(va, vb)`` is the Function-1 kernel; ``None`` means
        IPA in bag mode, evaluated inline with the source side resolved
        once (the same arithmetic as
        :func:`~repro.vsm.similarity.ipa_similarity`).
        """
        entries = self._entries
        capacity = self.capacity
        inline_ipa = compute is None
        if inline_ipa and row:
            na = va.n_ipa
            sa = va._scalar_set
            if sa is None:
                sa = va.scalar_set
            pa = va.path_ids
            spa = va.sorted_path if pa else None
            lpa = len(pa) if pa else 0
        out: list[float] = []
        append = out.append
        hits = misses = stale = evictions = 0
        for b, ver_b, vb in row:
            if a > b:
                key = (b, a)
                lo, hi = ver_b, ver_a
            else:
                key = (a, b)
                lo, hi = ver_a, ver_b
            entry = entries.get(key)
            if entry is not None:
                if entry[0] == lo and entry[1] == hi:
                    hits += 1
                    del entries[key]  # LRU refresh: move to the young end
                    entries[key] = entry
                    append(entry[2])
                    continue
                stale += 1
            misses += 1
            if inline_ipa:
                nb = vb.n_ipa
                denom = na if na >= nb else nb
                if denom == 0:
                    value = 0.0
                else:
                    sb = vb._scalar_set
                    if sb is None:
                        sb = vb.scalar_set
                    shared = float(len(sa & sb))
                    pb = vb.path_ids
                    if pa and pb:
                        lpb = len(pb)
                        shared += bag_intersection(spa, vb.sorted_path) / (
                            lpa if lpa >= lpb else lpb
                        )
                    value = shared / denom
            else:
                value = compute(va, vb)
            append(value)
            if not capacity:
                continue
            if entry is not None:
                del entries[key]  # stale entry: reinsert at the young end
                entries[key] = (lo, hi, value)
                continue
            entries[key] = (lo, hi, value)
            if len(entries) > capacity:
                entries.pop(next(iter(entries)))
                evictions += 1
        self._hits += hits
        self._misses += misses
        self._stale += stale
        self._evictions += evictions
        return out

    def stats(self) -> SimCacheStats:
        """Snapshot of the counters."""
        return SimCacheStats(
            hits=self._hits,
            misses=self._misses,
            stale=self._stale,
            evictions=self._evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    def approx_bytes(self) -> int:
        """Approximate resident size (key tuple + value tuple per entry)."""
        return 96 + 160 * len(self._entries)


class SharedSimilarityCache(SimilarityCache):
    """A :class:`SimilarityCache` safe to share across miner shards.

    Every public operation takes an internal lock, so concurrent shards
    (threads today; the seam for multi-process shards tomorrow) can
    lookup/store without corrupting the LRU order or the counters. A
    :meth:`consult_row` holds the lock once for its whole row. The
    single-shard hot path stays on the unlocked base class.
    """

    __slots__ = ("_lock",)

    def __init__(self, capacity: int = 65536) -> None:
        super().__init__(capacity)
        self._lock = threading.Lock()

    def lookup(self, a: int, b: int, ver_a: int, ver_b: int) -> float | None:
        with self._lock:
            return super().lookup(a, b, ver_a, ver_b)

    def store(self, a: int, b: int, ver_a: int, ver_b: int, value: float) -> None:
        with self._lock:
            super().store(a, b, ver_a, ver_b, value)

    def consult_row(self, a: int, ver_a: int, va, row, compute=None) -> list[float]:
        with self._lock:
            return super().consult_row(a, ver_a, va, row, compute)

    def stats(self) -> SimCacheStats:
        with self._lock:
            return super().stats()

    def __len__(self) -> int:
        with self._lock:
            return super().__len__()

    def clear(self) -> None:
        with self._lock:
            super().clear()

    def approx_bytes(self) -> int:
        with self._lock:
            return super().approx_bytes()

    def __getstate__(self):
        # snapshot for the process-backend runner: entries and counters
        # travel, the lock is recreated on unpickle
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": dict(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "stale": self._stale,
                "evictions": self._evictions,
            }

    def __setstate__(self, state) -> None:
        self.capacity = state["capacity"]
        self._entries = dict(state["entries"])
        self._hits = state["hits"]
        self._misses = state["misses"]
        self._stale = state["stale"]
        self._evictions = state["evictions"]
        self._lock = threading.Lock()
