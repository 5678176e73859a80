"""Reference schedules the production mining path is compared against.

The library runs one schedule: ``Farmer.observe`` marks the requested
file's Correlator List dirty, the one-pass re-rank
(``CoMiner.reevaluate``) runs on its first query, and a sharded service
delivers each boundary echo inside the call that produced it. The
paper-literal alternatives
live here, outside the hot code, as oracles:

* :func:`entrywise_kernel` — the entry-by-entry re-rank
  (clear the list, then one ``CorrelatorList.update`` per successor);
* :func:`refresh_edge` — the immediate single-edge refresh that
  ``CoMiner.defer_edge`` logs and replays;
* :func:`eager_observe` — Algorithm 1 on every request;
* :func:`scan_eviction` — the full-scan weakest-edge eviction that
  ``NodeState.evict_weakest`` bounds with its per-node lower bound;
* :func:`route_substreams` — the sharded service's routing rules,
  applied one record at a time;
* :func:`ipa_reference` — Function 1 under IPA as the paper states it,
  on sorted tuples and a linear merge, with none of the production
  row's set shortcuts.

The module imports nothing beyond the mining core, so it runs on an
interpreter without numpy.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.cominer import CoMiner
from repro.core.farmer import Farmer
from repro.graph.correlation_graph import NodeState
from repro.graph.correlator_list import CorrelatorList
from repro.traces.record import TraceRecord
from repro.vsm.vector import SemanticVector, bag_intersection

__all__ = [
    "RoutedStreams",
    "eager_observe",
    "entrywise_kernel",
    "ipa_reference",
    "refresh_edge",
    "route_substreams",
    "scan_eviction",
]


def _reevaluate_entrywise(self: CoMiner, src: int) -> CorrelatorList:
    """Re-rank ``src`` from scratch: clear the list, then offer every
    current successor through ``CorrelatorList.update`` (one binary
    insertion each) with a per-pair Function 1."""
    successors = self.constructor.graph.successors(src)
    self._edge_log.pop(src, None)
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


def ipa_reference(
    a: SemanticVector, b: SemanticVector, path_mode: str = "bag"
) -> float:
    """Function 1 under the Integrated Path Algorithm, paper-literal:
    shared scalar items plus the directory similarity of the two paths
    (bag: multiset intersection of the sorted component tuples; prefix:
    the shared leading run) over the larger item count, in the float
    operations the production row performs."""
    denom = max(a.n_items("ipa"), b.n_items("ipa"))
    if denom == 0:
        return 0.0
    hits = float(bag_intersection(a.scalar_ids, b.scalar_ids))
    pa, pb = a.path_ids, b.path_ids
    if pa and pb:
        if path_mode == "bag":
            shared = bag_intersection(tuple(sorted(pa)), tuple(sorted(pb)))
        else:
            shared = 0
            for x, y in zip(pa, pb):
                if x != y:
                    break
                shared += 1
        hits += shared / max(len(pa), len(pb))
    return hits / denom


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


def _evict_by_scan(self: NodeState) -> int:
    """Drop the first minimum-weight successor in insertion order,
    found by reading every weight, and return its slot. The node's
    lower bound is not read but dropped, so a production eviction after
    this one never trusts a bound it did not set."""
    weights = self.succ_weights
    victim = 0
    weakest = weights[0]
    for i in range(1, len(weights)):
        w = weights[i]
        if w < weakest:
            weakest = w
            victim = i
    fids = self.succ_fids
    slots = self._slots
    del slots[fids[victim]]
    del fids[victim]
    del weights[victim]
    del self.succ_raw[victim]
    del self.succ_last[victim]
    for i in range(victim, len(fids)):
        slots[fids[i]] = i
    self.succ_version += 1
    self._floor_len = 0
    return victim


@contextmanager
def scan_eviction() -> Iterator[None]:
    """Run every ``NodeState`` eviction on the full-scan reference
    while the block is open.

    Like :func:`entrywise_kernel`, the swap is class-wide (every graph,
    shard, standby and placeholder) and the production method is
    restored on exit, also on an exception. To compare the two in
    lockstep, drive the reference side inside a short
    ``with scan_eviction():`` block per step.
    """
    production = NodeState.__dict__["evict_weakest"]
    NodeState.evict_weakest = _evict_by_scan
    try:
        yield
    finally:
        NodeState.evict_weakest = production


@dataclass
class RoutedStreams:
    """What :func:`route_substreams` expects a sharded service to do.

    Attributes:
        substreams: per shard, the ``(record, is_echo)`` pairs it mines,
            in order. A failed shard's substream restarts empty (its
            private state is lost and nothing reaches it afterwards).
        echo_drops: per destination shard, echoes lost to a failed shard.
        n_observed: accepted requests (echoes not double-counted).
        n_boundary_echoes: boundary requests, shed and dropped included.
        n_echoes_shed: echoes suppressed by ``allow_echo=False``.
        n_dropped_failed: records lost because their owner was failed.
        barriers: the accepted-request count at each standby sync.
    """

    substreams: list[list[tuple[TraceRecord, bool]]]
    echo_drops: list[int]
    n_observed: int = 0
    n_boundary_echoes: int = 0
    n_echoes_shed: int = 0
    n_dropped_failed: int = 0
    barriers: list[int] = field(default_factory=list)


def route_substreams(
    segments: Sequence[tuple[str, object]],
    *,
    n_shards: int,
    route: Callable[[int], int],
    cross_shard_edges: bool = True,
    op_filter: tuple[str, ...] | None = None,
    sync_interval: int | None = None,
) -> RoutedStreams:
    """Route a segmented stream the way ``ShardedFarmer`` must, one
    record at a time.

    ``segments`` holds ``(entry, payload)`` steps. For the entry points
    ``"observe"``, ``"mine"`` and ``"ingest_stream"`` the payload is a
    list of ``(record, allow_echo)`` pairs; ``("fail", index)`` fails
    shard ``index``. ``sync_interval`` is the standby cadence under
    replication (``None`` without replication).

    The rules, per record:

    * a record whose op is outside ``op_filter`` is skipped;
    * a record whose owner is failed is lost (only ``ingest_stream``
      gets there: ``observe`` and ``mine`` raise instead), but it still
      becomes the predecessor of the next record;
    * otherwise the owner mines it, and if the previous record belonged
      to another shard it is a boundary request: under
      ``cross_shard_edges`` the predecessor's shard mines it as an echo,
      unless ``ingest_stream`` admitted it with ``allow_echo=False``
      (shed) or that shard is failed (dropped);
    * each accepted record counts toward the standby cadence. The
      barrier falls on the record that reaches it, except inside
      ``mine``, whose barrier waits for the end of the batch.
    """
    out = RoutedStreams([[] for _ in range(n_shards)], [0] * n_shards)
    failed: set[int] = set()
    prev: int | None = None
    since_sync = 0
    for entry, payload in segments:
        if entry == "fail":
            failed.add(payload)
            out.substreams[payload] = []
            continue
        for record, allow_echo in payload:
            if op_filter is not None and record.op not in op_filter:
                continue
            owner = route(record.fid)
            if owner in failed:
                assert entry == "ingest_stream", "observe and mine raise here"
                out.n_dropped_failed += 1
                prev = owner
                continue
            out.substreams[owner].append((record, False))
            if cross_shard_edges and prev is not None and prev != owner:
                out.n_boundary_echoes += 1
                if entry == "ingest_stream" and not allow_echo:
                    out.n_echoes_shed += 1
                elif prev in failed:
                    out.echo_drops[prev] += 1
                else:
                    out.substreams[prev].append((record, True))
            prev = owner
            out.n_observed += 1
            if sync_interval is not None:
                since_sync += 1
                if entry != "mine" and since_sync >= sync_interval:
                    out.barriers.append(out.n_observed)
                    since_sync = 0
        if entry == "mine" and sync_interval and since_sync >= sync_interval:
            out.barriers.append(out.n_observed)
            since_sync = 0
    return out
