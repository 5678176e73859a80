"""Reference schedules the production mining path is compared against.

The library runs one schedule: ``Farmer.observe`` marks the requested
file's Correlator List dirty, the stamped one-pass re-rank
(``CoMiner.reevaluate``) runs on its first query, and a sharded service
delivers boundary echoes just in time. The paper-literal alternatives
live here, outside the hot code, as oracles:

* :func:`entrywise_kernel` — the stamp-free, entry-by-entry re-rank
  (clear the list, then one ``CorrelatorList.update`` per successor);
* :func:`refresh_edge` — the immediate single-edge refresh that
  ``CoMiner.defer_edge`` logs and replays;
* :func:`eager_observe` — Algorithm 1 on every request.

The module imports nothing beyond the mining core, so it runs on an
interpreter without numpy.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.core.cominer import CoMiner
from repro.core.farmer import Farmer
from repro.graph.correlator_list import CorrelatorList
from repro.traces.record import TraceRecord

__all__ = ["eager_observe", "entrywise_kernel", "refresh_edge"]


def _reevaluate_entrywise(self: CoMiner, src: int) -> CorrelatorList:
    """Re-rank ``src`` from scratch: clear the list, then offer every
    current successor through ``CorrelatorList.update`` (one binary
    insertion each) with a per-pair Function 1. No stamp is read or
    written; ``src``'s memo is dropped, so a production re-rank after
    this one never trusts a stamp it did not write."""
    successors = self.constructor.graph.successors(src)
    self._edge_log.pop(src, None)
    self._stamps.pop(src, None)
    self._ranked_epoch.pop(src, None)
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


@contextmanager
def entrywise_kernel() -> Iterator[None]:
    """Run every ``CoMiner`` re-rank on the entrywise reference kernel
    while the block is open.

    The swap is on the class, so it also covers the shards, standbys
    and failover placeholders a ``ShardedFarmer`` builds internally.
    The production kernel is restored on exit, also on an exception,
    which keeps the swap safe inside a ``hypothesis`` test. To compare
    the two kernels in lockstep, drive the reference side inside a
    short ``with entrywise_kernel():`` block per step.
    """
    production = CoMiner.__dict__["reevaluate"]
    CoMiner.reevaluate = _reevaluate_entrywise
    try:
        yield
    finally:
        CoMiner.reevaluate = production


def refresh_edge(miner: CoMiner, src: int, dst: int) -> None:
    """Refresh the single ``src → dst`` entry now, from current state
    (what ``CoMiner.defer_edge`` logs and later replays)."""
    miner._list_for(src).update(dst, miner.correlation_degree(src, dst))


def eager_observe(farmer: Farmer, record: TraceRecord) -> None:
    """The paper's literal per-request schedule: feed ``record`` through
    the pipeline, refresh every freshly-reinforced incoming edge, then
    run Algorithm 1 over the requested file's own successors at once.
    No list is left dirty and no edge is logged."""
    config = farmer.config
    if config.op_filter is not None and record.op not in config.op_filter:
        return
    fid, touched = farmer.constructor.observe(record)
    miner = farmer.miner
    for pred in touched:
        refresh_edge(miner, pred, fid)
    miner.reevaluate(fid)
    farmer._n_observed += 1
