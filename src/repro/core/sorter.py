"""Stage 4 — Sorting: ordered access to the mined correlations.

The Correlator Lists are kept sorted incrementally by
:class:`~repro.graph.correlator_list.CorrelatorList`; this stage exposes
the sorted views plus aggregate statistics (used by Table 4's memory
accounting and by the examples). It exists as its own component to keep
the stage structure of the paper's Figure 2 recognisable in the code.

Under lazy re-evaluation the Sorter is also the flush point: per-file
views go through :meth:`CoMiner.query` (re-ranking the list if dirty)
and aggregate views rank every dirty list first with
:meth:`CoMiner.rank_for_read`, so callers always see fully re-ranked
results and the read leaves the lazy schedule as it found it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.cominer import CoMiner
from repro.graph.correlator_list import CorrelatorEntry, CorrelatorList

__all__ = ["Sorter", "CorrelationSnapshot"]


@dataclass(frozen=True, slots=True)
class CorrelationSnapshot:
    """Aggregate statistics over all Correlator Lists."""

    n_lists: int
    n_entries: int
    mean_length: float
    max_length: int
    mean_top_degree: float

    @classmethod
    def fold(cls, lists: Iterable[CorrelatorList]) -> "CorrelationSnapshot":
        """Fold Correlator Lists, given in fid order, into a snapshot
        (empty lists are skipped).

        Folding in fid order makes the float means a pure function of
        the list contents, not of dict insertion history, so a sharded
        service's owned-list snapshot compares bit-for-bit across shard
        layouts (see ``ShardedFarmer.snapshot`` and ``rebalance``).
        """
        lists = [lst for lst in lists if len(lst) > 0]
        if not lists:
            return cls(0, 0, 0.0, 0, 0.0)
        lengths = [len(lst) for lst in lists]
        tops = [lst.top(1)[0].degree for lst in lists]
        return cls(
            n_lists=len(lists),
            n_entries=sum(lengths),
            mean_length=sum(lengths) / len(lists),
            max_length=max(lengths),
            mean_top_degree=sum(tops) / len(tops),
        )


class Sorter:
    """Sorted-view layer over the miner's Correlator Lists."""

    def __init__(self, miner: CoMiner) -> None:
        self._miner = miner

    def correlators(self, fid: int) -> list[CorrelatorEntry]:
        """All valid correlates of ``fid``, strongest first."""
        lst = self._miner.query(fid)
        return lst.entries() if lst is not None else []

    def top(self, fid: int, k: int) -> list[CorrelatorEntry]:
        """The ``k`` strongest correlates of ``fid``."""
        lst = self._miner.query(fid)
        return lst.top(k) if lst is not None else []

    def _ranked_lists(self) -> dict[int, CorrelatorList]:
        """Every list, dirty ones ranked for this read."""
        miner = self._miner
        miner.rank_for_read(miner.dirty_nodes())
        return miner.lists()

    def strongest_pairs(self, n: int = 10) -> list[tuple[int, CorrelatorEntry]]:
        """The globally strongest (file, correlate) pairs (reporting)."""
        pairs: list[tuple[int, CorrelatorEntry]] = []
        for fid, lst in self._ranked_lists().items():
            head = lst.top(1)
            if head:
                pairs.append((fid, head[0]))
        pairs.sort(key=lambda item: -item[1].degree)
        return pairs[:n]

    def snapshot(self) -> CorrelationSnapshot:
        """Aggregate statistics of the current mining state."""
        table = self._ranked_lists()
        return CorrelationSnapshot.fold(table[fid] for fid in sorted(table))
