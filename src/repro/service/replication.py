"""Warm-standby shard replication for the sharded mining service.

At peta-scale the mining service must survive the same failures the file
system it optimizes is engineered around: a metadata server (and the
miner shard co-located with it) can die at any point in the stream. The
replication layer keeps one **warm standby** per primary shard and makes
failover a first-class, property-tested operation:

* :class:`ShardReplica` — one standby: a full :class:`~repro.core.
  farmer.Farmer` sharing the service's namespace-global stores
  (vocabulary, vector store, Function-1 counter — those are not shard
  state and survive a shard failure by construction), holding a copy of
  the primary's *private* mining state (graph nodes, Correlator Lists,
  sliding window) as of the last sync barrier.
* :class:`ShardReplicator` — the per-service manager: builds one
  replica per shard, runs sync barriers, and hands a replica over at
  promotion time.

Sync rides the shard-migration seam
-----------------------------------

A sync barrier ships exactly what a rebalance migration ships — graph
nodes and freshly-ranked Correlator Lists — through the same methods
(:meth:`~repro.core.cominer.CoMiner.flush_nodes_report` ranks at the
source, :meth:`~repro.graph.correlation_graph.CorrelationGraph.
adopt_node` / :meth:`~repro.core.cominer.CoMiner.adopt_migrated`
install at the destination), with one difference: migration *moves*
state (``pop_node`` / ``extract_state`` detach), replication *copies*
it (``NodeState.clone`` / ``CorrelatorList.clone``), because the
primary keeps serving. Only nodes whose change tick moved since the
last barrier are shipped, so steady-state sync cost is proportional to
the inter-barrier delta, not to the shard.

The barrier contract
--------------------

Before copying, the barrier drains the primary's pending boundary
echoes (the standby must reflect every request *routed to* the shard)
and ranks every tick-changed list at the source. Ranking at the barrier
is behavior-preserving — a Correlator List is a pure function of the
current graph/vector state, so ranking now or at the next query yields
the same list — and it is what gives failover its guarantee: a promoted
standby serves, bit for bit, what a never-failed service (same config,
fed the stream up to the barrier) would serve for the shard's fids.
``tests/service/test_replication_failover.py`` pins that property with
randomized kill points over a 20k-record trace.

The loss window is the records accepted since the last barrier
(``FailoverReport.lag``); ``FarmerConfig.standby_sync_interval`` trades
that window against sync work, and ``ShardedFarmer.sync_standbys()``
forces a barrier at any external sync point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.farmer import Farmer

__all__ = ["ShardReplica", "ShardReplicator", "StandbySyncReport", "FailoverReport"]


@dataclass(frozen=True, slots=True)
class StandbySyncReport:
    """What one service-wide sync barrier did.

    Attributes:
        at_observed: service-level accepted-request count at the
            barrier — the point a subsequent failover restores to.
        n_shards_synced: primaries copied at this barrier (failed
            shards, if any, have no primary and are skipped).
        n_nodes_shipped: graph nodes (with their lists) copied across
            all shards — the inter-barrier delta, not the full state.
        elapsed_s: wall-clock cost of the barrier (rank + copy).
    """

    at_observed: int
    n_shards_synced: int
    n_nodes_shipped: int
    elapsed_s: float
    # how the shipped nodes travelled: in-place successor-array deltas
    # (three slice-assign memcpys into the standby's existing node) vs
    # whole-node clones (membership changed since the last barrier, or
    # the standby had no copy yet)
    n_delta_syncs: int = 0
    n_full_clones: int = 0


@dataclass(frozen=True, slots=True)
class FailoverReport:
    """What one ``promote_standby`` call did.

    Attributes:
        shard: the recovered shard index.
        synced_at: service-level accepted-request count at the standby's
            last sync barrier — the state the promoted shard serves.
        lag: accepted requests between that barrier and the promotion
            (the partition's loss window; its share of these records is
            gone).
        n_nodes_restored: graph nodes resident in the promoted shard.
        promote_s: time to put the standby in service (the
            unavailability window after the failure was detected).
        reseed_s: time to build and fully sync a fresh standby for the
            promoted shard (re-protection; runs after service resumes).
    """

    shard: int
    synced_at: int
    lag: int
    n_nodes_restored: int
    promote_s: float
    reseed_s: float


class ShardReplica:
    """One warm standby: a shadow Farmer at the last sync barrier."""

    __slots__ = (
        "farmer",
        "synced_at",
        "n_syncs",
        "n_delta_syncs",
        "n_full_clones",
        "_synced_ticks",
    )

    def __init__(self, farmer: Farmer) -> None:
        self.farmer = farmer
        self.synced_at = 0  # service n_observed at the last sync
        self.n_syncs = 0
        self.n_delta_syncs = 0  # nodes refreshed by array-slice copy
        self.n_full_clones = 0  # nodes shipped as whole clones
        self._synced_ticks: dict[int, int] = {}

    def sync(self, primary: Farmer, at_observed: int) -> int:
        """Copy the primary's changed state into the standby.

        Ranks every changed list at the source first with
        :meth:`~repro.core.cominer.CoMiner.rank_for_read`, which puts
        each freshly-ranked list back to dirty on the primary: the
        barrier rank exists for the standby's benefit, and the primary
        must stay on its own lazy schedule — otherwise its query
        answers would depend on the sync cadence (the drain-equivalence
        property in ``tests/online`` pins this invisibility). Then
        ships each changed node as either an **array delta** — when the
        standby's copy still has the same successor membership (equal
        ``succ_version`` and fid array), the per-edge stat arrays and
        counters are overwritten in place, three slice-assign memcpys —
        or a whole-node clone (membership changed, or no copy yet). The
        sliding window and accepted-request count are carried so a
        promotion resumes mining with the primary's exact context.
        Returns the number of nodes shipped.
        """
        graph = primary.constructor.graph
        node_map = graph.node_map()
        synced = self._synced_ticks
        is_dirty = primary.miner.is_dirty
        # a list is re-shipped when its graph tick moved OR it is dirty:
        # a dirty-but-tick-unchanged list (re-dirtied by an earlier read)
        # would rank differently now that neighbour vectors advanced, and
        # the standby must hold exactly what a barrier-time query of the
        # primary would serve
        changed = [
            fid
            for fid, node in node_map.items()
            if synced.get(fid) != node.change_tick or is_dirty(fid)
        ]
        if changed:
            changed.sort()
            # rank at the source so the shipped lists are exactly what
            # the primary would serve at this barrier (skips lists whose
            # tick has not moved since their last rank)
            primary.miner.rank_for_read(changed)
            standby_graph = self.farmer.constructor.graph
            standby_nodes = standby_graph.node_map()
            standby_miner = self.farmer.miner
            list_of = primary.miner.list_of
            for fid in changed:
                node = node_map[fid]
                mine = standby_nodes.get(fid)
                if (
                    mine is not None
                    and mine.succ_version == node.succ_version
                    and mine.succ_fids == node.succ_fids
                ):
                    # the standby's copy (written only by this sync
                    # path) still holds the same successors in the same
                    # order — refresh stats in place, no allocation
                    mine.copy_stats_from(node)
                    self.n_delta_syncs += 1
                else:
                    standby_graph.adopt_node(fid, node.clone())
                    self.n_full_clones += 1
                lst = list_of(fid)
                if lst is not None:
                    standby_miner.adopt_migrated(
                        fid, lst.clone(), node.change_tick
                    )
                synced[fid] = node.change_tick
        self.farmer.constructor.graph.adopt_window(graph.window_contents())
        # carry the accepted count so a promoted standby's stats() keeps
        # the primary's accounting (intra-package: the replica is an
        # extension of the Farmer it shadows, not a foreign caller)
        self.farmer._n_observed = primary.n_observed
        self.synced_at = at_observed
        self.n_syncs += 1
        return len(changed)

    def memory_bytes(self) -> int:
        """Standby footprint (shared stores accounted by the service)."""
        return self.farmer.memory_bytes()


class ShardReplicator:
    """Per-service standby manager: one :class:`ShardReplica` per shard.

    Owned by a :class:`~repro.service.ShardedFarmer` with
    ``config.replication=True``; the service triggers barriers on its
    accepted-request cadence and calls :meth:`take` / :meth:`reseed`
    during a promotion. Standbys share the service's vocabulary, vector
    store and Function-1 counter — those are namespace-global, not shard
    state, so a shard failure never loses them.
    """

    def __init__(self, service) -> None:
        self._service = service
        self.replicas: list[ShardReplica] = [
            self._fresh_replica() for _ in service.shards
        ]
        self.n_barriers = 0
        self.n_nodes_shipped = 0

    def _fresh_replica(self) -> ShardReplica:
        return ShardReplica(self._service._new_shard())

    def sync_all(self) -> StandbySyncReport:
        """Run one service-wide sync barrier (healthy shards only)."""
        service = self._service
        start = time.perf_counter()
        at = service.n_observed
        shipped = 0
        n_synced = 0
        deltas0 = sum(r.n_delta_syncs for r in self.replicas)
        clones0 = sum(r.n_full_clones for r in self.replicas)
        for index, replica in enumerate(self.replicas):
            if index in service._failed:
                continue  # no primary to copy; promote first
            shipped += replica.sync(service.shards[index], at)
            n_synced += 1
        self.n_barriers += 1
        self.n_nodes_shipped += shipped
        return StandbySyncReport(
            at_observed=at,
            n_shards_synced=n_synced,
            n_nodes_shipped=shipped,
            elapsed_s=time.perf_counter() - start,
            n_delta_syncs=sum(r.n_delta_syncs for r in self.replicas)
            - deltas0,
            n_full_clones=sum(r.n_full_clones for r in self.replicas)
            - clones0,
        )

    def take(self, index: int) -> ShardReplica:
        """Hand shard ``index``'s standby over for promotion."""
        return self.replicas[index]

    def reseed(self, index: int) -> int:
        """Replace shard ``index``'s replica with a fresh standby fully
        synced from the (just-promoted) primary — re-protection after a
        failover. Returns the nodes shipped by the initial sync."""
        service = self._service
        replica = self._fresh_replica()
        self.replicas[index] = replica
        return replica.sync(service.shards[index], service.n_observed)

    def resize(self) -> None:
        """Rebuild all replicas against the service's current topology
        (called after a rebalance: ownership moved between shards, so
        per-shard standby state is stale wholesale). The next sync
        barrier repopulates every standby from scratch."""
        self.replicas = [self._fresh_replica() for _ in self._service.shards]

    def memory_bytes(self) -> int:
        """Total standby footprint (shared stores counted elsewhere)."""
        return sum(replica.memory_bytes() for replica in self.replicas)
