"""Tests for the directed weighted correlation graph."""

import pytest

from repro.errors import ConfigError
from repro.graph.correlation_graph import CorrelationGraph


class TestObserve:
    def test_paper_abcd_example(self):
        """Access ABCD: N_AB=1.0, N_AC=0.9, N_AD=0.8 (§3.2.2)."""
        g = CorrelationGraph(window=3)
        for fid in (0, 1, 2, 3):
            g.observe(fid)
        succ = g.successors(0)
        assert succ[1].weighted_count == pytest.approx(1.0)
        assert succ[2].weighted_count == pytest.approx(0.9)
        assert succ[3].weighted_count == pytest.approx(0.8)

    def test_window_limits_reach(self):
        g = CorrelationGraph(window=1)
        for fid in (0, 1, 2):
            g.observe(fid)
        assert 2 not in g.successors(0)
        assert 2 in g.successors(1)

    def test_self_edges_skipped(self):
        g = CorrelationGraph(window=2)
        g.observe(5)
        g.observe(5)
        assert 5 not in g.successors(5)

    def test_touched_predecessors_returned(self):
        g = CorrelationGraph(window=2)
        g.observe(0)
        g.observe(1)
        touched = g.observe(2)
        assert set(touched) == {0, 1}

    def test_duplicate_window_entries_counted_once(self):
        g = CorrelationGraph(window=4)
        for fid in (7, 1, 7, 2):
            g.observe(fid)
        # 7 appears twice in the window before 2; only the nearest counts
        assert g.successors(7)[2].weighted_count == pytest.approx(1.0)

    def test_access_count_raw(self):
        g = CorrelationGraph()
        for fid in (1, 2, 1, 1):
            g.observe(fid)
        assert g.access_count(1) == 3
        assert g.access_count(99) == 0


class TestFrequency:
    def test_definition(self):
        """F(A,B) = weighted N_AB / raw N_A."""
        g = CorrelationGraph(window=1)
        for fid in (0, 1, 0, 1, 0, 2):
            g.observe(fid)
        # N_0 = 3; edges 0->1 twice (weight 2.0), 0->2 once (1.0)
        assert g.frequency(0, 1) == pytest.approx(2.0 / 3.0)
        assert g.frequency(0, 2) == pytest.approx(1.0 / 3.0)

    def test_missing_edge_zero(self):
        g = CorrelationGraph()
        g.observe(0)
        assert g.frequency(0, 1) == 0.0
        assert g.frequency(9, 0) == 0.0

    def test_capped_at_one(self):
        g = CorrelationGraph(window=4)
        # file 0 accessed once, then many successors within the window
        for fid in (0, 1, 0, 1, 0, 1):
            g.observe(fid)
        assert g.frequency(0, 1) <= 1.0

    def test_frequencies_bulk(self):
        g = CorrelationGraph(window=2)
        for fid in (0, 1, 2):
            g.observe(fid)
        freqs = g.frequencies(0)
        assert set(freqs) == {1, 2}
        assert freqs[1] == g.frequency(0, 1)


class TestCapacity:
    def test_successor_eviction(self):
        g = CorrelationGraph(window=1, successor_capacity=2)
        # successors of 0: three distinct, weakest should be evicted
        for fid in (0, 1, 0, 1, 0, 2, 0, 3):
            g.observe(fid)
        succ = g.successors(0)
        assert len(succ) == 2
        assert 1 in succ  # strongest retained

    def test_counts(self):
        g = CorrelationGraph(window=2)
        for fid in (0, 1, 2, 0):
            g.observe(fid)
        assert g.n_nodes() == 3
        assert g.n_edges() > 0
        assert set(g.nodes()) == {0, 1, 2}

    def test_window_contents(self):
        g = CorrelationGraph(window=3)
        for fid in (1, 2, 3, 4):
            g.observe(fid)
        assert g.window_contents() == (2, 3, 4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CorrelationGraph(window=0)
        with pytest.raises(ConfigError):
            CorrelationGraph(successor_capacity=0)
        # eviction's lower bound needs weights that never decrease
        for bad in (-0.5, float("nan")):

            def weight_fn(distance, decrement, bad=bad):
                return bad if distance == 3 else 1.0

            with pytest.raises(ConfigError):
                CorrelationGraph(window=3, weight_fn=weight_fn)

    def test_approx_bytes_grows(self):
        g = CorrelationGraph()
        empty = g.approx_bytes()
        for fid in range(100):
            g.observe(fid)
        assert g.approx_bytes() > empty


class TestChangeTicks:
    def test_unseen_is_zero(self):
        assert CorrelationGraph().change_tick(7) == 0

    def test_own_access_bumps(self):
        g = CorrelationGraph()
        g.observe(1)
        t1 = g.change_tick(1)
        assert t1 > 0
        g.observe(1)
        assert g.change_tick(1) > t1

    def test_edge_reinforcement_bumps_predecessor(self):
        g = CorrelationGraph(window=2)
        g.observe(1)
        t1 = g.change_tick(1)
        g.observe(2)  # reinforces 1 -> 2
        assert g.change_tick(1) > t1

    def test_untouched_node_stable(self):
        g = CorrelationGraph(window=1)
        for fid in (1, 2, 3):
            g.observe(fid)
        t1 = g.change_tick(1)
        g.observe(9)  # 1 is out of the window: no edge from 1
        assert g.change_tick(1) == t1

    def test_window_is_bounded_deque(self):
        """The sliding window keeps exactly `window` recent fids."""
        g = CorrelationGraph(window=2)
        for fid in range(10):
            g.observe(fid)
        assert g.window_contents() == (8, 9)


class TestMigrationSeam:
    """pop_node / adopt_node / clone on the flat array representation:
    the shard-rebalance and standby-sync seams move whole nodes (or
    refresh them in place), so the arrays and their slot index must
    survive the trip exactly."""

    @staticmethod
    def _arrays_of(node):
        return (
            node.access_count,
            node.change_tick,
            node.succ_version,
            node.succ_fids[:],
            node.succ_weights[:],
            node.succ_raw[:],
            node.succ_last[:],
        )

    def test_pop_adopt_round_trip(self):
        src = CorrelationGraph(window=3)
        for fid in (0, 1, 2, 3, 1, 2, 0, 4, 2, 1):
            src.observe(fid)
        node = src.node_map()[0]
        before = self._arrays_of(node)
        popped = src.pop_node(0)
        assert popped is node
        assert 0 not in src.node_map()
        dst = CorrelationGraph(window=3)
        dst.adopt_node(0, popped)
        adopted = dst.node_map()[0]
        assert self._arrays_of(adopted) == before
        # the slot index still answers lookups after the move, and the
        # dict view rebuilds from the arrays in insertion order
        for i, fid in enumerate(adopted.succ_fids):
            assert adopted.slot_of(fid) == i
        assert list(adopted.successors) == list(adopted.succ_fids)

    def test_pop_missing_returns_none(self):
        assert CorrelationGraph().pop_node(99) is None

    def test_clone_is_deep_on_arrays(self):
        g = CorrelationGraph(window=2)
        for fid in (0, 1, 2, 0, 1):
            g.observe(fid)
        node = g.node_map()[0]
        copy = node.clone()
        frozen = self._arrays_of(copy)
        g.observe(0)
        g.observe(1)  # reinforces 0 -> 1 in the original only
        assert self._arrays_of(copy) == frozen
        assert node.succ_weights != copy.succ_weights

    def test_copy_stats_from_refreshes_in_place(self):
        """The standby-sync delta path: same membership, stats moved by
        slice assignment — the refreshed copy matches a fresh clone."""
        g = CorrelationGraph(window=2)
        for fid in (0, 1, 2, 0, 1):
            g.observe(fid)
        node = g.node_map()[0]
        stale = node.clone()
        g.observe(0)
        g.observe(1)  # weight churn, no membership change
        assert stale.succ_version == node.succ_version
        assert stale.succ_weights != node.succ_weights
        stale.copy_stats_from(node)
        assert self._arrays_of(stale) == self._arrays_of(node.clone())
