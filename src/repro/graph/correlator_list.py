"""Correlator Lists (paper §3.1 Stage 3/4).

Every file with at least one valid successor owns a Correlator List: the
successor fids paired with their correlation degree, kept sorted in
decreasing degree so the head of the list is always the strongest
correlate. Entries whose degree does not exceed the validity threshold
(``max_strength``) are filtered out at update time — this is FARMER's
memory-bounding mechanism (§3.3) as well as its prefetch-accuracy
mechanism (§4.1).

Two maintenance paths:

* :meth:`update` — insert/re-rank one successor by binary insertion
  (the eager single-edge refresh path);
* :meth:`rebuild` — replace the whole list from a candidate set in one
  pass (single sort + threshold/capacity cut, O(d log d)). This is the
  Algorithm-1 re-rank kernel: offering every candidate through
  ``update`` performs d binary insertions plus d dict removals for the
  same final state, so the bulk path is both asymptotically and
  constant-factor cheaper.

Both paths agree exactly: the retained set is the top-``capacity``
candidates by ``(-degree, fid)`` among those strictly above the
threshold (streaming insert-then-evict-weakest keeps precisely the k
best seen, independent of offer order).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import nsmallest
from typing import NamedTuple

from repro.errors import ConfigError

__all__ = ["CorrelatorEntry", "CorrelatorList"]

# Below this many above-threshold candidates a full C sort beats a heap
# partial-select, so the partial path only engages past it. Any value
# preserves exact output.
_PARTIAL_SELECT_MIN = 64


def _sort_key(entry: "CorrelatorEntry") -> tuple[float, int]:
    """Ranking key: decreasing degree, ties broken by ascending fid."""
    return (-entry.degree, entry.fid)


class CorrelatorEntry(NamedTuple):
    """One (successor, degree) pair in a Correlator List.

    A NamedTuple rather than a dataclass: the bulk rebuild constructs
    one per candidate on the hottest loop in the system, and tuple
    construction is measurably cheaper than frozen-dataclass
    ``object.__setattr__`` initialisation.
    """

    fid: int
    degree: float


class CorrelatorList:
    """Sorted, thresholded, capacity-bounded successor list.

    Maintained as a list sorted by decreasing degree (ties broken by fid
    for determinism). ``update`` inserts or re-ranks a successor; entries
    at or below the threshold are rejected/dropped.
    """

    __slots__ = ("threshold", "capacity", "insort_ops", "_entries", "_degrees")

    def __init__(self, threshold: float = 0.0, capacity: int = 16) -> None:
        if capacity < 1:
            raise ConfigError("correlator capacity must be >= 1")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError("threshold must be in [0, 1]")
        self.threshold = threshold
        self.capacity = capacity
        # sorted insertions performed so far (the op-count benchmarks
        # assert the bulk rebuild path keeps this flat)
        self.insort_ops = 0
        self._entries: list[CorrelatorEntry] = []
        self._degrees: dict[int, float] = {}

    def update(self, fid: int, degree: float) -> bool:
        """Insert or re-rank ``fid`` with a new degree.

        Returns True if the fid is in the list afterwards. A degree at or
        below the threshold removes an existing entry (a correlation can
        decay below validity as frequencies shift).
        """
        old = self._degrees.get(fid)
        if old is not None:
            if old == degree:
                return True
            self._remove(fid, old)
        if degree <= self.threshold:
            return False
        self._degrees[fid] = degree
        self.insort_ops += 1
        insort(self._entries, CorrelatorEntry(fid, degree), key=_sort_key)
        if len(self._entries) > self.capacity:
            victim = self._entries.pop()
            del self._degrees[victim.fid]
            return victim.fid != fid
        return True

    def rebuild(self, candidates) -> None:
        """Replace the whole list from ``(fid, degree)`` candidates.

        One pass: threshold filter, a single sort by the ranking key,
        capacity cut. Candidates must have unique fids. The result is
        identical to offering every candidate through :meth:`update` on
        an empty list, without the per-entry binary insertions.

        When many more candidates survive the threshold than fit the
        capacity, a heap partial-select (``heapq.nsmallest``) replaces
        the full sort — O(d log k) instead of O(d log d), same exact
        result (``nsmallest(k, keyed)`` ≡ ``sorted(keyed)[:k]`` and the
        ``(-degree, fid)`` keys are unique).
        """
        threshold = self.threshold
        capacity = self.capacity
        # rank raw (-degree, fid) tuples: native tuple comparison in C,
        # no per-entry key-function call (exact sign-flip round-trips)
        keyed = [
            (-degree, fid) for fid, degree in candidates if degree > threshold
        ]
        if len(keyed) > capacity and len(keyed) >= _PARTIAL_SELECT_MIN:
            keyed = nsmallest(capacity, keyed)
        else:
            keyed.sort()
            del keyed[capacity:]
        self._entries = [CorrelatorEntry(fid, -neg) for neg, fid in keyed]
        self._degrees = {fid: -neg for neg, fid in keyed}

    def _remove(self, fid: int, degree: float) -> None:
        del self._degrees[fid]
        # the (degree, fid) pair pins the victim's exact slot in the
        # sorted order, so bisect lands on it directly
        entries = self._entries
        i = bisect_left(entries, (-degree, fid), key=_sort_key)
        if i < len(entries) and entries[i].fid == fid:
            entries.pop(i)

    def discard(self, fid: int) -> None:
        """Remove ``fid`` if present."""
        old = self._degrees.get(fid)
        if old is not None:
            self._remove(fid, old)

    def degree_of(self, fid: int) -> float | None:
        """Degree of ``fid`` or None if not listed."""
        return self._degrees.get(fid)

    def top(self, k: int) -> list[CorrelatorEntry]:
        """The ``k`` strongest correlates (fewer if the list is shorter)."""
        return self._entries[:k]

    def entries(self) -> list[CorrelatorEntry]:
        """All entries, strongest first (a copy)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fid: int) -> bool:
        return fid in self._degrees

    def __iter__(self):
        return iter(self._entries)

    def clone(self) -> "CorrelatorList":
        """An independent copy with the same entries and counters.

        Entries are immutable NamedTuples, so a shallow container copy
        is a full copy; ``insort_ops`` carries over so op accounting on
        a promoted standby continues from the primary's count.
        """
        new = CorrelatorList(threshold=self.threshold, capacity=self.capacity)
        new.insort_ops = self.insort_ops
        new._entries = list(self._entries)
        new._degrees = dict(self._degrees)
        return new

    def is_sorted(self) -> bool:
        """Invariant check used by tests: strictly non-increasing degrees."""
        return all(
            self._entries[i].degree >= self._entries[i + 1].degree
            for i in range(len(self._entries) - 1)
        )

    def approx_bytes(self) -> int:
        """Approximate resident size (entries + index)."""
        return 96 + 48 * len(self._entries) + 104 * len(self._degrees)
