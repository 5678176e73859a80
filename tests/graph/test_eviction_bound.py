"""The bounded weakest-edge eviction against the full-scan reference.

``NodeState.evict_weakest`` keeps a per-node lower bound so it reads
only the weights it has to; ``tests.oracle.scan_eviction`` swaps in the
reference that reads every weight. The victim must be the same one on
every eviction: the first minimum-weight slot in insertion order.

Everything here is numpy-free (the workload scenarios use a pure-python
PRNG), so the no-numpy CI leg runs it with the rest of ``tests/graph``.
"""

from __future__ import annotations

import pickle
from array import array
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.graph.correlation_graph import CorrelationGraph, NodeState
from repro.graph.lda import lda_weight, uniform_weight
from repro.service.sharded import ShardedFarmer
from repro.workloads.scenario import generate_scenario
from tests.oracle import scan_eviction


@contextmanager
def recording(log: list) -> Iterator[None]:
    """Append ``(slot, fid)`` of every victim to ``log``, whichever
    eviction method is installed when the block opens."""
    evict = NodeState.evict_weakest

    def recorded(node: NodeState) -> int:
        fids = node.succ_fids[:]
        slot = evict(node)
        log.append((slot, fids[slot]))
        return slot

    NodeState.evict_weakest = recorded
    try:
        yield
    finally:
        NodeState.evict_weakest = evict


def node_state(node: NodeState) -> tuple:
    return (
        node.access_count,
        node.change_tick,
        node.succ_version,
        node.succ_fids.tobytes(),
        node.succ_weights.tobytes(),
        node.succ_raw.tobytes(),
        node.succ_last.tobytes(),
        node._slots,
    )


def graph_state(graph: CorrelationGraph) -> tuple:
    nodes = graph.node_map()
    return (
        graph.window_contents(),
        [(fid, node_state(nodes[fid])) for fid in sorted(nodes)],
    )


def assert_bound_holds(graph: CorrelationGraph) -> None:
    """The invariants the bound rests on: every weight in slots
    ``[0, _floor_len)`` is ``>= _floor``, and with a bound set, the
    floor slot lies inside it and every weight before it is strictly
    above ``_floor``."""
    for fid, node in graph.node_map().items():
        floor = node._floor
        assert all(w >= floor for w in node.succ_weights[: node._floor_len]), fid
        if node._floor_len:
            assert node._floor_slot < node._floor_len, fid
            prefix = node.succ_weights[: node._floor_slot]
            assert all(w > floor for w in prefix), fid


class CountingWeights(array):
    """A weight array that counts the single-slot reads made of it."""

    def __new__(cls, values):
        new = super().__new__(cls, "d", values)
        new.reads = 0
        return new

    def __getitem__(self, index):
        if isinstance(index, int):
            self.reads += 1
        return super().__getitem__(index)


def full_node(weights: list[float]) -> NodeState:
    node = NodeState()
    for fid, w in enumerate(weights):
        node._slots[fid] = fid
        node.succ_fids.append(fid)
        node.succ_raw.append(1)
        node.succ_last.append(1)
    node.succ_weights = CountingWeights(weights)
    return node


class TestBound:
    def test_tail_below_floor_reads_only_the_tail(self):
        node = full_node([5.0, 6.0, 7.0, 5.0])
        assert node.evict_weakest() == 0  # no bound yet: full scan
        assert (node._floor, node._floor_len) == (5.0, 3)
        node.succ_fids.append(9)
        node._slots[9] = 3
        node.succ_weights.append(1.0)
        node.succ_raw.append(1)
        node.succ_last.append(1)
        node.succ_weights.reads = 0
        assert node.evict_weakest() == 3
        assert node.succ_weights.reads == 1
        assert (node._floor, node._floor_len) == (5.0, 3)

    def test_tie_with_floor_falls_through_to_first_minimum(self):
        node = full_node([2.0, 3.0, 2.0])
        node._floor, node._floor_len = 2.0, 2
        assert node.evict_weakest() == 0  # the tail's 2.0 ties slot 0
        assert list(node.succ_fids) == [1, 2]
        assert (node._floor, node._floor_len) == (2.0, 2)

    def test_full_scan_remembers_the_first_floor_slot(self):
        node = full_node([4.0, 2.0, 3.0, 1.0, 2.0])
        assert node.evict_weakest() == 3
        assert list(node.succ_weights) == [4.0, 2.0, 3.0, 2.0]
        assert (node._floor, node._floor_len, node._floor_slot) == (2.0, 4, 1)
        node = full_node([3.0, 2.0, 1.0, 2.0])
        assert node.evict_weakest() == 2
        assert (node._floor, node._floor_len, node._floor_slot) == (2.0, 3, 1)

    def test_tie_at_the_floor_slot_reads_the_tail_plus_one(self):
        """A tail tie with a floor slot still at the floor: the floor
        slot is the first minimum, found without a full scan."""
        node = full_node([5.0, 3.0, 4.0, 3.0, 6.0, 3.0])
        node._floor, node._floor_len, node._floor_slot = 3.0, 4, 1
        node.succ_weights.reads = 0
        assert node.evict_weakest() == 1
        assert node.succ_weights.reads <= 2 + 1  # tail [4, 6) plus one
        assert list(node.succ_fids) == [0, 2, 3, 4, 5]
        assert (node._floor, node._floor_len, node._floor_slot) == (3.0, 5, 1)

    def test_grown_floor_slot_falls_through(self):
        node = full_node([5.0, 4.0, 3.0])
        node._floor, node._floor_len, node._floor_slot = 3.0, 2, 1
        assert node.evict_weakest() == 2  # slot 1 grew from 3.0 to 4.0
        assert (node._floor, node._floor_len, node._floor_slot) == (4.0, 2, 1)

    def test_capacity_one_leaves_no_bound(self):
        node = full_node([4.0])
        assert node.evict_weakest() == 0
        assert node._floor_len == 0

    def test_clone_copies_and_refresh_and_load_reset(self):
        g = CorrelationGraph(window=1, successor_capacity=2)
        for fid in (0, 1, 0, 1, 0, 2, 0, 3):
            g.observe(fid)
        node = g.node_map()[0]
        assert node._floor_len > 0
        clone = node.clone()
        assert (clone._floor, clone._floor_len) == (node._floor, node._floor_len)
        loaded = pickle.loads(pickle.dumps(node))
        assert loaded._floor_len == 0
        assert node.__getstate__() == loaded.__getstate__()
        clone.copy_stats_from(node)
        assert clone._floor_len == 0


_fid = st.integers(0, 7)
_step = st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 1), st.lists(_fid, max_size=12)),
    st.tuples(st.just("batch"), st.integers(0, 1), st.lists(_fid, max_size=12)),
    st.tuples(st.just("clone"), st.integers(0, 1), _fid),
    st.tuples(st.just("sync"), st.integers(0, 1), _fid),
    st.tuples(st.just("refresh"), st.integers(0, 1), _fid),
    st.tuples(st.just("pickle"), st.integers(0, 1), _fid),
    st.tuples(st.just("migrate"), st.integers(0, 1), _fid),
)
_decrement = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)
)


class Side:
    """Two graphs (shards) and their standby copies, driven by one
    step schedule."""

    def __init__(self, **knobs) -> None:
        self.graphs = [CorrelationGraph(**knobs), CorrelationGraph(**knobs)]
        self.standbys: dict[tuple[int, int], NodeState] = {}

    def apply(self, step) -> None:
        op, g, arg = step
        graph = self.graphs[g]
        node = graph.node_map().get(arg) if isinstance(arg, int) else None
        if op == "observe":
            for fid in arg:
                graph.observe(fid)
        elif op == "batch":
            graph.observe_batch(arg)
        elif op == "clone" and node is not None:
            graph.adopt_node(arg, node.clone())
        elif op == "sync" and node is not None:
            self.standbys[g, arg] = node.clone()
        elif op == "refresh" and node is not None:
            # the standby-sync delta path, then a promotion of the copy
            standby = self.standbys.pop((g, arg), None)
            if standby is not None and standby.succ_version == node.succ_version:
                standby.copy_stats_from(node)
                graph.adopt_node(arg, standby)
        elif op == "pickle":
            self.graphs[g] = pickle.loads(pickle.dumps(graph))
        elif op == "migrate":
            moved = graph.pop_node(arg)
            if moved is not None:
                self.graphs[1 - g].adopt_node(arg, moved)


class TestLockstep:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        steps=st.lists(_step, max_size=30),
        window=st.integers(1, 5),
        decrement=_decrement,
        capacity=st.integers(1, 5),
        weight_fn=st.sampled_from([lda_weight, uniform_weight]),
    )
    def test_victims_and_arrays_match_full_scan(
        self, steps, window, decrement, capacity, weight_fn
    ):
        knobs = dict(
            window=window,
            decrement=decrement,
            successor_capacity=capacity,
            weight_fn=weight_fn,
        )
        prod, ref = Side(**knobs), Side(**knobs)
        prod_log: list = []
        ref_log: list = []
        for i, step in enumerate(steps):
            with recording(prod_log):
                prod.apply(step)
            with scan_eviction(), recording(ref_log):
                ref.apply(step)
            assert prod_log == ref_log, i
            for graph in prod.graphs:
                assert_bound_holds(graph)
        for mine, theirs in zip(prod.graphs, ref.graphs):
            assert graph_state(mine) == graph_state(theirs)


def farmer_state(farmer: Farmer) -> tuple:
    graph = farmer.constructor.graph
    fids = sorted(graph.nodes())
    return graph_state(graph), [(fid, farmer.correlators(fid)) for fid in fids]


class TestEndToEnd:
    """Production and reference eviction under the whole pipeline."""

    def test_farmer_mine(self):
        records, _ = generate_scenario("metadata_churn", 8_000, seed=3)
        states, logs = [], []
        for evictions in (nullcontext, scan_eviction):
            log: list = []
            with evictions(), recording(log):
                farmer = Farmer(FarmerConfig())
                farmer.mine(records)
                states.append(farmer_state(farmer))
            logs.append(log)
        assert logs[0], "vacuous comparison: nothing was evicted"
        assert logs[0] == logs[1]
        assert states[0] == states[1]

    def test_replicated_service_rebalance_and_failover(self):
        records, _ = generate_scenario("pipeline", 9_000, seed=4)
        config = FarmerConfig(
            n_shards=3,
            replication=True,
            standby_sync_interval=100_000,  # explicit barriers only
        )

        def run() -> tuple:
            service = ShardedFarmer(config)
            service.mine(records[:3_000])
            reports = [service.sync_standbys()]
            # a short stretch keeps some memberships: delta syncs
            service.mine(records[3_000:3_300])
            reports.append(service.sync_standbys())
            service.rebalance(n_shards=4)
            service.mine(records[3_300:6_000])
            reports.append(service.sync_standbys())
            service.fail_shard(1)
            service.promote_standby(1)
            service.mine(records[6_000:])
            reports.append(service.sync_standbys())
            farmers = list(service.shards) + [
                replica.farmer for replica in service._replicator.replicas
            ]
            return (
                [(r.n_delta_syncs, r.n_full_clones) for r in reports],
                [farmer_state(farmer) for farmer in farmers],
            )

        results, logs = [], []
        for evictions in (nullcontext, scan_eviction):
            log: list = []
            with evictions(), recording(log):
                results.append(run())
            logs.append(log)
        assert logs[0], "vacuous comparison: nothing was evicted"
        assert logs[0] == logs[1]
        syncs = results[0][0]
        assert any(deltas for deltas, _ in syncs)
        assert results[0] == results[1]
