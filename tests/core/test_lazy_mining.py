"""Lazy vs eager mining: the dirty/lazy contract and its equivalence.

The refactored hot path defers the full Algorithm-1 re-rank to the first
query of a dirty Correlator List. These tests pin the contract:

* query results are bit-identical to the eager per-request schedule
  (``tests.oracle.eager_observe``) when queries follow the triggering
  request (the FPA pattern) — property-tested over a 20k-record
  synthetic trace;
* a stale similarity is never served after a vector change;
* the batched ``mine()`` fast path agrees with an ``observe()`` loop.
"""

import pytest

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.traces.synthetic import generate_trace
from repro.vsm.similarity import similarity
from tests.conftest import make_record, sequence_records
from tests.oracle import eager_observe


def lazy_eager_pair(**kwargs) -> tuple[Farmer, Farmer]:
    """Two identically-configured farmers: the first is fed through
    ``observe``, the second is meant to be fed through
    :func:`eager_observe`."""
    cfg = FarmerConfig(**kwargs)
    return Farmer(cfg), Farmer(cfg)


class TestEagerLazyEquivalence:
    def test_20k_trace_equivalence(self, synthetic_trace):
        """Acceptance property: over a 20k-record synthetic trace, the
        lazy Farmer returns identical ``correlators()``/``predict()``
        results to the eager schedule at every query point."""
        trace = synthetic_trace("hp", 20_000, seed=11)
        lazy, eager = lazy_eager_pair(max_strength=0.3)
        seen: set[int] = set()
        for i, record in enumerate(trace):
            lazy.observe(record)
            eager_observe(eager, record)
            seen.add(record.fid)
            # the FPA query pattern: ask about the file just requested
            assert lazy.correlators(record.fid) == eager.correlators(record.fid)
            assert lazy.predict(record.fid) == eager.predict(record.fid)
            if i % 2000 == 1999:
                # full-state checkpoint: every file ever seen agrees
                for fid in seen:
                    assert lazy.correlators(fid) == eager.correlators(fid)
        assert lazy.snapshot() == eager.snapshot()
        assert lazy.stats().n_observed == eager.stats().n_observed == len(trace)

    def test_equivalence_pathless_trace(self):
        """Same property on an INS-style (path-less) attribute set."""
        from repro.core.config import PATHLESS_ATTRIBUTES

        trace = generate_trace("ins", 3_000, seed=5)
        lazy, eager = lazy_eager_pair(
            max_strength=0.2, attributes=PATHLESS_ATTRIBUTES
        )
        for record in trace:
            lazy.observe(record)
            eager_observe(eager, record)
            assert lazy.predict(record.fid) == eager.predict(record.fid)

    def test_equivalence_without_cache(self):
        """Lazy/eager agreement needs no memo of Function 1 (no
        similarity cache sits behind either)."""
        trace = generate_trace("hp", 1_500, seed=3)
        lazy, eager = lazy_eager_pair(max_strength=0.3)
        for record in trace:
            lazy.observe(record)
            eager_observe(eager, record)
            assert lazy.correlators(record.fid) == eager.correlators(record.fid)


class TestDirtyProtocol:
    def test_observe_marks_dirty_query_clears(self):
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        for r in sequence_records([1, 2, 1, 2]):
            farmer.observe(r)
        assert farmer.miner.is_dirty(1)
        assert farmer.miner.is_dirty(2)
        farmer.correlators(1)
        assert not farmer.miner.is_dirty(1)
        assert farmer.miner.is_dirty(2)

    def test_snapshot_flushes_all(self):
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        for r in sequence_records([1, 2, 3] * 4):
            farmer.observe(r)
        assert farmer.miner.n_dirty() > 0
        farmer.snapshot()
        assert farmer.miner.n_dirty() == 0

    def test_eager_mode_never_dirty(self):
        """The eager reference ranks on every request, so it never
        leaves a list dirty or an edge logged."""
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        for r in sequence_records([1, 2, 3] * 4):
            eager_observe(farmer, r)
        assert farmer.miner.n_dirty() == 0
        assert farmer.miner._edge_log == {}

    def test_query_unknown_fid(self):
        farmer = Farmer()
        assert farmer.miner.query(123) is None
        assert farmer.correlators(123) == []

    def test_stale_edges_swept_on_query(self):
        """The deferred re-rank performs the stale-edge sweep."""
        farmer = Farmer(
            FarmerConfig(max_strength=0.0, successor_capacity=2, window=1)
        )
        for r in sequence_records([0, 1, 0, 1, 0, 2, 0, 3]):
            farmer.observe(r)
        entries = {e.fid for e in farmer.correlators(0)}
        assert entries <= set(farmer.constructor.graph.successors(0))


class TestBatchMine:
    def test_mine_agrees_with_observe_loop(self):
        """The batched fast path and an observe() loop agree on every
        list once queried (both re-rank against the same final state)."""
        trace = generate_trace("hp", 2_000, seed=9)
        # correlator capacity >= successor capacity so both paths keep
        # exactly the same {R > threshold} set (no capacity-order effects)
        cfg = FarmerConfig(max_strength=0.3, correlator_capacity=64)
        batched = Farmer(cfg).mine(trace)
        looped = Farmer(cfg)
        for record in trace:
            looped.observe(record)
        fids = set(batched.constructor.graph.nodes())
        assert fids == set(looped.constructor.graph.nodes())
        for fid in fids:
            assert batched.correlators(fid) == looped.correlators(fid)
        snap_b, snap_l = batched.snapshot(), looped.snapshot()
        assert (snap_b.n_lists, snap_b.n_entries, snap_b.max_length) == (
            snap_l.n_lists,
            snap_l.n_entries,
            snap_l.max_length,
        )
        # mean aggregates sum floats in list-creation order, which differs
        # between the two paths — identical up to summation rounding
        assert snap_b.mean_length == pytest.approx(snap_l.mean_length)
        assert snap_b.mean_top_degree == pytest.approx(snap_l.mean_top_degree)

    def test_mine_leaves_nothing_dirty(self):
        farmer = Farmer().mine(generate_trace("hp", 500, seed=2))
        assert farmer.miner.n_dirty() == 0

    def test_mine_respects_op_filter(self):
        farmer = Farmer(FarmerConfig(op_filter=("open",)))
        farmer.mine(
            [make_record(1, op="stat"), make_record(2, op="open"), make_record(3)]
        )
        assert farmer.stats().n_observed == 2


class TestCacheInvalidation:
    def test_changed_vector_refreshes_similarity(self):
        """Regression (satellite): a file whose attributes change
        mid-trace must yield a refreshed sim on the next evaluation —
        a stale similarity is never served."""
        cfg = FarmerConfig(max_strength=0.0, sv_policy="latest", weight_p=1.0)
        farmer = Farmer(cfg)
        farmer.observe(make_record(1, uid=1, pid=1, host=1, path="/a/x"))
        farmer.observe(make_record(2, uid=1, pid=1, host=1, path="/a/y"))
        sim_before = farmer.semantic_distance(1, 2)
        assert sim_before > 0.0
        assert farmer.semantic_distance(1, 2) == sim_before
        # file 2's attributes change entirely → a different vector
        farmer.observe(make_record(2, uid=9, pid=9, host=9, path="/z/q"))
        sim_after = farmer.semantic_distance(1, 2)
        expected = similarity(
            farmer.constructor.vector_of(1), farmer.constructor.vector_of(2)
        )
        assert sim_after == pytest.approx(expected)
        assert sim_after != sim_before

    def test_changed_vector_refreshes_degree_on_query(self):
        """The re-ranked Correlator List reflects the fresh sim/R."""
        cfg = FarmerConfig(max_strength=0.0, sv_policy="latest", weight_p=0.9)
        farmer = Farmer(cfg)
        for r in sequence_records([1, 2] * 6, uid=1, pid=1, host=1, path="/a/b"):
            farmer.observe(r)
        before = {e.fid: e.degree for e in farmer.correlators(1)}
        assert before[2] > 0.0
        # file 2 is re-requested from an unrelated context, then file 1
        # again so its list is re-ranked on the next query
        farmer.observe(make_record(2, uid=7, pid=7, host=7, path="/q/r", ts=99))
        farmer.observe(make_record(1, uid=1, pid=1, host=1, path="/a/b", ts=100))
        after = {e.fid: e.degree for e in farmer.correlators(1)}
        assert after[2] == pytest.approx(farmer.correlation_degree(1, 2))
        assert after[2] != before[2]
