"""The directed, weighted file-correlation graph (paper §3.1 Stage 2).

Nodes are files; a directed edge A→B accumulates the LDA-weighted count
of "B followed A within the look-ahead window". Each node also tracks its
raw access count ``N_A`` so the access frequency ``F(A,B) = N_AB / N_A``
(§3.2.2) can be read off an edge at any time.

To keep the footprint bounded on adversarial streams (and to reproduce
the paper's small-memory claim honestly) each node's successor table has
a configurable capacity; when full, the weakest edge is evicted. The
paper's filtering makes strong edges keep growing, so eviction converges
to the truly correlated set.

Array-backed successor layout
-----------------------------

A node's successor table is stored as parallel flat arrays (stdlib
``array``) in insertion order, plus a ``fid → slot`` index:

* ``succ_fids``    (int64)   — successor fids;
* ``succ_weights`` (float64) — LDA-weighted counts ``N_xy``;
* ``succ_raw``     (int64)   — raw co-occurrence counts;
* ``succ_last``    (int64)   — last observed window distance.

The layout buys three things. Re-rank kernels read a node's whole
candidate set as contiguous slices. ``clone`` / ``pop_node`` /
``adopt_node`` — the rebalance-migration and standby-sync ship units —
are four C-level array copies instead of a per-edge object walk. And
membership changes are observable in O(1): ``succ_version`` bumps on
every add/evict, so two nodes (or a node and a recorded snapshot) with
equal ``succ_version`` provably hold the same fids in the same slots,
which is what lets :meth:`NodeState.copy_stats_from` refresh a standby
replica by in-place slice assignment (a memcpy per array).

Eviction preserves the historical tie-break exactly: the victim is the
*first* minimum-weight slot in insertion order (what the previous
dict-backed scan chose), removed with ``del`` so insertion order — and
therefore every downstream iteration order — is unchanged.

Finding the victim does not rescan the whole table. Each node keeps a
lower bound ``(_floor, _floor_len)``: every weight in slots
``[0, _floor_len)`` is ``>= _floor``. Edge weights never decrease (the
constructor rejects a negative or NaN window weight), so the bound
stays sound while the node grows, and an eviction reads only the tail
past ``_floor_len``, plus one more weight when the tail does not beat
the bound: the first slot that held ``_floor`` (see
:meth:`NodeState.evict_weakest`). A batch ``mine`` of the 60k-record
``metadata_churn`` benchmark input (seed 1) makes 116,943 evictions; 77% of
them remove the newest slot, the edge appended right after the
previous eviction. LDA weights take few distinct values, so a new edge
often ties the weakest old one; the floor slot settles most of those
ties, and 10,646 evictions (9%) still scan every weight. With the bound
an eviction reads a handful of weights instead of 32, and the
shift-down and index repair touch only the array tail.

``EdgeStats`` survives as the per-edge *view* type:
:meth:`CorrelationGraph.successors` materialises a plain
``fid → EdgeStats`` dict on demand for diagnostic and reference-path
consumers. Mutations still go through :meth:`CorrelationGraph.observe`.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.graph.lda import lda_weight

__all__ = ["EdgeStats", "NodeState", "CorrelationGraph"]

_INF = float("inf")


@dataclass(slots=True)
class EdgeStats:
    """Read view of one directed edge A→B (see module docstring: the
    authoritative storage is the owning node's parallel arrays)."""

    weighted_count: float = 0.0
    raw_count: int = 0
    last_distance: int = 0

    def approx_bytes(self) -> int:
        """Approximate resident size of the edge record."""
        return 48

    def clone(self) -> "EdgeStats":
        """An independent copy."""
        return EdgeStats(
            weighted_count=self.weighted_count,
            raw_count=self.raw_count,
            last_distance=self.last_distance,
        )


class NodeState:
    """Per-file graph state: access count, array-backed successor table
    and a change tick that advances whenever either mutates (the miner
    compares ticks to skip re-evaluating files whose graph state is
    unchanged). ``succ_version`` advances only on successor *membership*
    changes (add/evict), never on in-place weight updates."""

    __slots__ = (
        "access_count",
        "change_tick",
        "succ_version",
        "succ_fids",
        "succ_weights",
        "succ_raw",
        "succ_last",
        "_slots",
        "_floor",
        "_floor_len",
        "_floor_slot",
    )

    def __init__(self) -> None:
        self.access_count = 0
        self.change_tick = 0
        self.succ_version = 0
        self.succ_fids = array("q")
        self.succ_weights = array("d")
        self.succ_raw = array("q")
        self.succ_last = array("q")
        self._slots: dict[int, int] = {}
        # eviction lower bound: every weight in slots [0, _floor_len) is
        # >= _floor, and every weight in [0, _floor_slot) is > _floor
        # (see evict_weakest); _floor_len == 0 means no bound
        self._floor = 0.0
        self._floor_len = 0
        self._floor_slot = 0

    @property
    def successors(self) -> dict[int, EdgeStats]:
        """The successor table as a freshly built ``fid → EdgeStats``
        dict, in insertion order (a *snapshot* — mutating the returned
        edge objects does not write back to the node)."""
        return {
            fid: EdgeStats(w, raw, last)
            for fid, w, raw, last in zip(
                self.succ_fids, self.succ_weights, self.succ_raw, self.succ_last
            )
        }

    def slot_of(self, fid: int) -> int | None:
        """Array slot of successor ``fid`` (None if absent)."""
        return self._slots.get(fid)

    def evict_weakest(self) -> int:
        """Drop the first minimum-weight successor in insertion order
        (the historical dict-scan tie-break) and return its slot.

        The scan reads only the weights it has to. The node keeps a
        lower bound ``(_floor, _floor_len)``: every weight in slots
        ``[0, _floor_len)`` is ``>= _floor``. The bound stays sound
        because weights never decrease (the graph only adds non-negative
        window weights), appends land past ``_floor_len``, and evicting
        a slot past ``_floor_len`` leaves the prefix as it was.

        * Scan the tail ``[_floor_len, n)`` only. If its first minimum
          is strictly below ``_floor``, no prefix weight can equal or
          beat it, so it is the global first minimum: evict it and keep
          the bound.
        * Otherwise every weight is ``>= _floor``. The node also keeps
          ``_floor_slot``: every weight in slots ``[0, _floor_slot)`` is
          strictly above ``_floor``. If that slot still holds exactly
          ``_floor`` it is the first minimum: evict it, and since every
          survivor is ``>= _floor`` the bound grows to ``n - 1`` slots.
        * Otherwise (the floor slot's weight has grown) scan everything,
          tracking the second-smallest weight, which is the smallest of
          the ``n - 1`` survivors, and the first slot holding it: they
          become ``_floor`` and ``_floor_slot``, with
          ``_floor_len = n - 1``.

        ``_floor_len == 0`` means no bound, and the next eviction scans
        everything.
        """
        weights = self.succ_weights
        n = len(weights)
        victim = self._floor_len
        full = True
        if 0 < victim < n:
            weakest = weights[victim]
            for i in range(victim + 1, n):
                w = weights[i]
                if w < weakest:
                    weakest = w
                    victim = i
            floor = self._floor
            if weakest < floor:
                full = False
            elif weights[self._floor_slot] == floor:
                victim = self._floor_slot
                self._floor_len = n - 1
                full = False
        if full:
            victim = 0
            weakest = weights[0]
            second = _INF
            second_slot = 0
            for i in range(1, n):
                w = weights[i]
                if w < weakest:
                    second = weakest
                    second_slot = victim
                    weakest = w
                    victim = i
                elif w < second:
                    second = w
                    second_slot = i
            self._floor = second
            self._floor_len = n - 1
            # the survivors shift down past the victim
            self._floor_slot = second_slot - (second_slot > victim)
        fids = self.succ_fids
        slots = self._slots
        del slots[fids[victim]]
        del fids[victim]
        del weights[victim]
        del self.succ_raw[victim]
        del self.succ_last[victim]
        # repair the index for the shifted tail (the weakest edge is
        # usually young, so the tail is short)
        for i in range(victim, len(fids)):
            slots[fids[i]] = i
        self.succ_version += 1
        return victim

    def copy_stats_from(self, other: "NodeState") -> None:
        """In-place refresh from ``other``, which must hold the *same
        successor membership* (equal ``succ_version`` — the caller's
        contract): counters copied, per-edge arrays overwritten by slice
        assignment (a memcpy each). This is the standby-sync delta path:
        no allocation, no index rebuild."""
        self.access_count = other.access_count
        self.change_tick = other.change_tick
        self.succ_weights[:] = other.succ_weights
        self.succ_raw[:] = other.succ_raw
        self.succ_last[:] = other.succ_last
        self._floor_len = 0  # the weights changed under the bound

    def approx_bytes(self) -> int:
        """Approximate resident size of this node and its edge arrays."""
        # 4 array objects + slots-dict entries + 32 payload bytes/edge
        return 80 + 4 * 64 + 136 * len(self.succ_fids)

    def clone(self) -> "NodeState":
        """A deep, independent copy of the node and its edge arrays.

        Shard replication *copies* state where rebalance migration
        *moves* it: the primary keeps mutating its node, so the standby
        must hold its own arrays, not aliases. With the flat layout this
        is four C-level array copies plus one dict copy.
        """
        new = NodeState.__new__(NodeState)
        new.access_count = self.access_count
        new.change_tick = self.change_tick
        new.succ_version = self.succ_version
        new.succ_fids = self.succ_fids[:]
        new.succ_weights = self.succ_weights[:]
        new.succ_raw = self.succ_raw[:]
        new.succ_last = self.succ_last[:]
        new._slots = self._slots.copy()
        new._floor = self._floor
        new._floor_len = self._floor_len
        new._floor_slot = self._floor_slot
        return new

    # explicit pickle support: __slots__ classes have no __dict__, and
    # durable snapshots pickle every node
    def __getstate__(self):
        return (
            self.access_count,
            self.change_tick,
            self.succ_version,
            self.succ_fids,
            self.succ_weights,
            self.succ_raw,
            self.succ_last,
            self._slots,
        )

    def __setstate__(self, state) -> None:
        (
            self.access_count,
            self.change_tick,
            self.succ_version,
            self.succ_fids,
            self.succ_weights,
            self.succ_raw,
            self.succ_last,
            self._slots,
        ) = state
        # the bound is not pickled: the first eviction after a load
        # scans everything and sets it again
        self._floor = 0.0
        self._floor_len = 0
        self._floor_slot = 0


class CorrelationGraph:
    """Online directed weighted graph over file ids."""

    def __init__(
        self,
        window: int = 4,
        decrement: float = 0.1,
        successor_capacity: int = 32,
        weight_fn=lda_weight,
    ) -> None:
        if window < 1:
            raise ConfigError("window must be >= 1")
        if successor_capacity < 1:
            raise ConfigError("successor_capacity must be >= 1")
        self.window = window
        self.decrement = decrement
        self.successor_capacity = successor_capacity
        self._weight_fn = weight_fn
        # distances are bounded by the window, so the schedule collapses
        # to a lookup table — no weight-fn call on the per-edge hot path
        self._weights: tuple[float, ...] = tuple(
            weight_fn(d, decrement) for d in range(1, window + 1)
        )
        # NodeState.evict_weakest's lower bound holds only while edge
        # weights never decrease, so every weight added must be >= 0
        # (``not w >= 0.0`` also catches NaN)
        bad = [w for w in self._weights if not w >= 0.0]
        if bad:
            raise ConfigError(
                f"weight_fn must return non-negative weights, got {bad[0]!r}"
            )
        self._nodes: dict[int, NodeState] = {}
        # sliding window of the last `window` fids; maxlen makes append
        # O(1) with automatic expiry (no list.pop(0) churn)
        self._recent: deque[int] = deque(maxlen=window)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def observe(self, fid: int) -> list[int]:
        """Feed one access; returns the predecessor fids whose edge sets
        were updated (the miner re-evaluates exactly those).

        The new access becomes a successor (at its respective distance) of
        every distinct file currently in the sliding window; self edges
        are skipped.
        """
        nodes = self._nodes
        node = nodes.get(fid)
        if node is None:
            node = NodeState()
            nodes[fid] = node
        node.access_count += 1
        node.change_tick += 1

        touched: list[int] = []
        weights = self._weights
        capacity = self.successor_capacity
        # walk the window back-to-front: nearest predecessor has distance 1
        # (touched doubles as the seen-set: the window holds ≤ `window`
        # entries, and list containment beats a set allocation there)
        for distance, pred in enumerate(reversed(self._recent), start=1):
            if pred == fid or pred in touched:
                continue
            pnode = nodes.get(pred)
            if pnode is None:  # pred seen only through the window
                pnode = NodeState()
                nodes[pred] = pnode
            pnode.change_tick += 1
            slot = pnode._slots.get(fid)
            if slot is None:
                if len(pnode.succ_fids) >= capacity:
                    pnode.evict_weakest()
                pnode._slots[fid] = len(pnode.succ_fids)
                pnode.succ_fids.append(fid)
                pnode.succ_weights.append(weights[distance - 1])
                pnode.succ_raw.append(1)
                pnode.succ_last.append(distance)
                pnode.succ_version += 1
            else:
                pnode.succ_weights[slot] += weights[distance - 1]
                pnode.succ_raw[slot] += 1
                pnode.succ_last[slot] = distance
            touched.append(pred)
        self._recent.append(fid)
        return touched

    def observe_batch(self, fids: list[int]) -> set[int]:
        """Feed a whole batch of accesses; returns every touched fid
        (the observed files plus every predecessor whose edges changed).

        Semantically identical to calling :meth:`observe` per fid — the
        batch form exists because ``Farmer.ingest`` is the throughput
        path: the sliding window is walked over the batch list itself
        (seeded with the current window) instead of mutating the deque
        per record, and the per-record bookkeeping is hoisted.
        """
        nodes = self._nodes
        get = nodes.get
        weights = self._weights
        capacity = self.successor_capacity
        window = self.window
        seq = list(self._recent)
        start = len(seq)
        seq += fids
        touched: set[int] = set()
        add_touched = touched.add
        local: list[int] = []  # per-record seen-set (≤ window entries)
        for i in range(start, len(seq)):
            fid = seq[i]
            node = get(fid)
            if node is None:
                node = NodeState()
                nodes[fid] = node
            node.access_count += 1
            node.change_tick += 1
            add_touched(fid)
            lo = i - window
            if lo < 0:
                lo = 0
            local.clear()
            for j in range(i - 1, lo - 1, -1):
                pred = seq[j]
                if pred == fid or pred in local:
                    continue
                pnode = get(pred)
                if pnode is None:
                    pnode = NodeState()
                    nodes[pred] = pnode
                pnode.change_tick += 1
                slot = pnode._slots.get(fid)
                if slot is None:
                    if len(pnode.succ_fids) >= capacity:
                        pnode.evict_weakest()
                    pnode._slots[fid] = len(pnode.succ_fids)
                    pnode.succ_fids.append(fid)
                    pnode.succ_weights.append(weights[i - j - 1])
                    pnode.succ_raw.append(1)
                    pnode.succ_last.append(i - j)
                    pnode.succ_version += 1
                else:
                    pnode.succ_weights[slot] += weights[i - j - 1]
                    pnode.succ_raw[slot] += 1
                    pnode.succ_last[slot] = i - j
                local.append(pred)
                add_touched(pred)
        self._recent = deque(seq[-window:], maxlen=window)
        return touched

    # ------------------------------------------------------------------
    # migration (the shard-rebalancing seam)
    # ------------------------------------------------------------------

    def pop_node(self, fid: int) -> NodeState | None:
        """Detach and return a node (``None`` if absent).

        The node object ships to another graph via :meth:`adopt_node`;
        edges *into* the popped fid from other nodes are left behind (on
        the source shard they become halo edges nobody queries). The
        sliding window is not scrubbed: if the fid lingers there, a
        subsequent observation recreates a fresh (halo) node, which is
        exactly what happens to any foreign fid seen through the window.
        """
        return self._nodes.pop(fid, None)

    def adopt_node(self, fid: int, node: NodeState) -> None:
        """Install a node migrated from another graph, replacing any
        halo node this graph accumulated for the fid (the migrated node
        is the authoritative one — it came from the fid's owner)."""
        self._nodes[fid] = node

    def adopt_window(self, fids: Iterable[int]) -> None:
        """Replace the sliding window with ``fids`` (oldest first).

        Standby replication uses this to carry the primary's window
        across a sync barrier, so a promoted standby resumes mining with
        the same predecessor context the failed primary had (contents
        beyond the window length are truncated to the newest entries,
        matching ``deque(maxlen=window)`` semantics).
        """
        self._recent = deque(fids, maxlen=self.window)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def access_count(self, fid: int) -> int:
        """Raw access count ``N_A`` of a file (0 if never seen)."""
        node = self._nodes.get(fid)
        return node.access_count if node else 0

    def change_tick(self, fid: int) -> int:
        """Monotonic per-node change tick (0 if never seen).

        Advances every time the node's access count or successor table
        mutates, so a consumer holding the tick it last evaluated at can
        tell in O(1) whether re-evaluation could possibly change anything.
        """
        node = self._nodes.get(fid)
        return node.change_tick if node else 0

    def successors(self, fid: int) -> dict[int, EdgeStats]:
        """Successor table of a file as a ``fid → EdgeStats`` snapshot
        in insertion order (empty dict if none). Built on demand from
        the node's arrays — a read view, not the storage."""
        node = self._nodes.get(fid)
        return node.successors if node else {}

    def node_map(self) -> dict[int, NodeState]:
        """The live ``fid → NodeState`` dict — the re-rank kernel's read
        view (one lookup yields successor arrays, access count and change
        tick together). Treat strictly as read-only; writes go through
        :meth:`observe`."""
        return self._nodes

    def frequency(self, src: int, dst: int) -> float:
        """Access frequency ``F(src, dst) = N_AB / N_A`` (0.0 if absent).

        ``N_AB`` is the LDA-weighted successor count, ``N_A`` the raw
        access count of ``src``, per §3.2.2.
        """
        node = self._nodes.get(src)
        if node is None or node.access_count == 0:
            return 0.0
        slot = node._slots.get(dst)
        if slot is None:
            return 0.0
        return min(1.0, node.succ_weights[slot] / node.access_count)

    def frequencies(self, src: int) -> dict[int, float]:
        """``F(src, ·)`` for every successor of ``src``."""
        node = self._nodes.get(src)
        if node is None or node.access_count == 0:
            return {}
        n = node.access_count
        return {
            dst: min(1.0, w / n)
            for dst, w in zip(node.succ_fids, node.succ_weights)
        }

    def n_nodes(self) -> int:
        """Number of distinct files observed."""
        return len(self._nodes)

    def n_edges(self) -> int:
        """Number of directed edges currently retained."""
        return sum(len(n.succ_fids) for n in self._nodes.values())

    def nodes(self) -> list[int]:
        """All file ids present in the graph."""
        return list(self._nodes)

    def window_contents(self) -> tuple[int, ...]:
        """Current sliding-window contents, oldest first (diagnostics)."""
        return tuple(self._recent)

    def approx_bytes(self) -> int:
        """Approximate resident size of the whole graph."""
        return 64 + sum(104 + n.approx_bytes() for n in self._nodes.values())
