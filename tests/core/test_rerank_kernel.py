"""The one-pass re-rank against the entrywise reference kernel.

The acceptance property for the re-rank: over a randomized 20k-record
synthetic trace, a production Farmer (one-pass re-rank) returns
bit-identical query results to the entry-by-entry reference
(``tests.oracle.entrywise_kernel``), under both the lazy and the eager
schedule, with equal re-rank, scan and Function-1 counts and no
insorts during re-ranks. A derandomized property test checks the same
over drawn configs and short generated traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.traces.synthetic import generate_trace
from tests.conftest import make_record
from tests.oracle import eager_observe, entrywise_kernel


def production_and_reference(**common) -> tuple[Farmer, Farmer]:
    """Two identically-configured farmers: the first runs the production
    re-rank, the second is meant to be driven under
    :func:`entrywise_kernel`."""
    config = FarmerConfig(**common)
    return Farmer(config), Farmer(config)


class TestKernelEquivalence:
    def test_20k_trace_equivalence_lazy(self, synthetic_trace):
        """Acceptance property (lazy schedule): production and entrywise
        agree at every query point of a 20k trace."""
        trace = synthetic_trace("hp", 20_000, seed=23)
        prod, ref = production_and_reference(max_strength=0.3)
        seen: set[int] = set()
        for i, record in enumerate(trace):
            prod.observe(record)
            seen.add(record.fid)
            with entrywise_kernel():
                ref.observe(record)
                expected = ref.correlators(record.fid)
            assert prod.correlators(record.fid) == expected, i
            if i % 4000 == 3999:
                for fid in seen:
                    with entrywise_kernel():
                        expected = ref.correlators(fid)
                    assert prod.correlators(fid) == expected
        with entrywise_kernel():
            expected = ref.snapshot()
        assert prod.snapshot() == expected

    def test_eager_schedule_equivalence(self):
        """Same property under the paper's literal per-request
        schedule (``tests.oracle.eager_observe``)."""
        trace = generate_trace("hp", 6_000, seed=7)
        prod, ref = production_and_reference(max_strength=0.3)
        for record in trace:
            eager_observe(prod, record)
            with entrywise_kernel():
                eager_observe(ref, record)
                expected = ref.predict(record.fid)
            assert prod.predict(record.fid) == expected

    def test_batch_mine_equivalence(self):
        """Chunked batch mining (the incremental service pattern) stays
        bit-identical, with the same Function-1 count."""
        trace = generate_trace("hp", 8_000, seed=5)
        prod, ref = production_and_reference(max_strength=0.3)
        for start in range(0, len(trace), 250):
            prod.mine(trace[start : start + 250])
            with entrywise_kernel():
                ref.mine(trace[start : start + 250])
        fids = set(ref.constructor.graph.nodes())
        assert set(prod.constructor.graph.nodes()) == fids
        for fid in fids:
            with entrywise_kernel():
                expected = ref.correlators(fid)
            assert prod.correlators(fid) == expected
        assert prod.f1_evaluations() == ref.f1_evaluations()

    def test_small_capacity_overflow_equivalence(self):
        """The capacity cut is where ranking paths could diverge; pin
        equality under heavy list overflow (capacity 2, threshold 0)."""
        trace = generate_trace("hp", 4_000, seed=13)
        prod, ref = production_and_reference(
            max_strength=0.0, correlator_capacity=2
        )
        for record in trace:
            prod.observe(record)
            with entrywise_kernel():
                ref.observe(record)
                expected = ref.correlators(record.fid)
            assert prod.correlators(record.fid) == expected


def _fpa(farmer: Farmer, trace) -> Farmer:
    for record in trace:
        farmer.observe(record)
        farmer.predict(record.fid)
    return farmer


class TestOpCounts:
    def test_bulk_rerank_never_insorts(self):
        """Production re-ranks cost zero binary insertions; the
        entrywise reference pays one per scanned entry. Both evaluate
        Function 1 once per scanned pair."""
        trace = generate_trace("hp", 3_000, seed=3)
        prod, ref = production_and_reference(max_strength=0.3)
        _fpa(prod, trace)
        with entrywise_kernel():
            _fpa(ref, trace)
        bulk = prod.rerank_stats()
        entry = ref.rerank_stats()
        assert bulk.n_reevaluations == entry.n_reevaluations
        assert bulk.entries_scanned == entry.entries_scanned
        assert prod.f1_evaluations() == ref.f1_evaluations()
        # production insorts come only from edge-log replays
        assert bulk.insort_ops < entry.insort_ops / 2

    def test_rerank_stats_exposed_via_farmer_stats(self):
        farmer = Farmer()
        farmer.mine(generate_trace("hp", 500, seed=2))
        stats = farmer.stats()
        assert stats.rerank == farmer.rerank_stats()
        assert stats.rerank.n_reevaluations > 0
        assert stats.rerank.entries_scanned > 0
        assert stats.rerank.entries_skipped_unchanged == 0


class TestStampCorrectness:
    def test_stamp_never_serves_stale_degree(self):
        """A re-rank recomputes from current state, so a changed vector
        or frequency always shows in the next query — spot-check by
        forcing vector churn between queries."""
        cfg = FarmerConfig(max_strength=0.0, sv_policy="latest", weight_p=0.9)
        farmer = Farmer(cfg)
        for i in range(6):
            farmer.observe(make_record(1, uid=1, pid=1, host=1, ts=2 * i))
            farmer.observe(make_record(2, uid=1, pid=1, host=1, ts=2 * i + 1))
        before = {e.fid: e.degree for e in farmer.correlators(1)}
        farmer.observe(make_record(2, uid=9, pid=9, host=9, ts=100))
        farmer.observe(make_record(1, uid=1, pid=1, host=1, ts=101))
        after = {e.fid: e.degree for e in farmer.correlators(1)}
        assert after[2] == pytest.approx(farmer.correlation_degree(1, 2))
        assert after[2] != before[2]


class TestFullSkip:
    def test_skip_invalidated_by_vector_churn(self):
        """Nothing skips a re-rank: after a successor's vector churns,
        a hand-forced re-rank rescans and serves the current degree,
        and the skip counter stays at 0."""
        farmer = Farmer(FarmerConfig(sv_policy="latest", max_strength=0.0))
        for i in range(6):
            farmer.observe(make_record(1, uid=1, pid=1, host=1, ts=2 * i))
            farmer.observe(make_record(2, uid=1, pid=1, host=1, ts=2 * i + 1))
        farmer.miner.mark_dirty(1)
        before_list = {e.fid: e.degree for e in farmer.correlators(1)}
        # churn fid 2's vector (new uid/pid/host => new scalar ids)
        farmer.observe(make_record(2, uid=9, pid=9, host=9, ts=100))
        farmer.miner.mark_dirty(1)
        before = farmer.rerank_stats()
        after_list = {e.fid: e.degree for e in farmer.correlators(1)}
        stats = farmer.rerank_stats()
        assert stats.n_reevaluations == before.n_reevaluations + 1
        assert stats.entries_skipped_unchanged == 0
        assert after_list[2] == pytest.approx(farmer.correlation_degree(1, 2))
        assert after_list[2] != before_list[2]


class TestStampReuseEquivalence:
    def test_vector_churn_interleaved_queries(self):
        """Under the churny "latest" policy the re-rank stays
        bit-identical to the entrywise oracle at every query."""
        trace = generate_trace("hp", 6_000, seed=29)
        fa, fb = production_and_reference(
            max_strength=0.0, sv_policy="latest", weight_p=0.9
        )
        for i, record in enumerate(trace):
            fa.observe(record)
            with entrywise_kernel():
                fb.observe(record)
                expected = fb.correlators(record.fid)
            assert fa.correlators(record.fid) == expected, i
        with entrywise_kernel():
            expected = fb.snapshot()
        assert fa.snapshot() == expected

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(path_method="dpa"),
            dict(path_mode="prefix"),
            dict(weight_p=1.0),
            dict(weight_p=0.0),
        ],
        ids=["dpa", "prefix", "p=1", "p=0"],
    )
    def test_off_fast_path_configs(self, overrides):
        """Configs that leave the inlined IPA-bag row (dpa, prefix
        mode) or degenerate the Function-2 blend still agree with the
        entrywise oracle over a 3k trace, Function-1 count included."""
        trace = generate_trace("hp", 3_000, seed=31)
        fa, fb = production_and_reference(max_strength=0.0, **overrides)
        for i, record in enumerate(trace):
            fa.observe(record)
            with entrywise_kernel():
                fb.observe(record)
                expected = fb.predict(record.fid)
            assert fa.predict(record.fid) == expected, i
        fids = set(fb.constructor.graph.nodes())
        assert set(fa.constructor.graph.nodes()) == fids
        for fid in fids:
            with entrywise_kernel():
                expected = fb.correlators(fid)
            assert fa.correlators(fid) == expected
        assert fa.f1_evaluations() == fb.f1_evaluations()


_FIDS = range(8)
_PATHS = (None, "/a/b/c", "/a/b/d", "/a/a/b", "/x/a/b/c", "/x/y")
_traces = st.lists(
    st.tuples(
        st.sampled_from(_FIDS),
        st.integers(0, 2),  # uid
        st.integers(0, 2),  # pid
        st.sampled_from(_PATHS),
    ),
    min_size=5,
    max_size=80,
)


class TestRerankProperty:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        trace=_traces,
        weight_p=st.sampled_from([0.0, 0.5, 1.0]),
        path_method=st.sampled_from(["ipa", "dpa"]),
        path_mode=st.sampled_from(["bag", "prefix"]),
        sv_policy=st.sampled_from(["merge", "latest", "first"]),
        successor_capacity=st.sampled_from([1, 3, 32]),
        correlator_capacity=st.sampled_from([1, 2, 16]),
        max_strength=st.sampled_from([0.0, 0.3, 0.6]),
    )
    def test_one_pass_matches_entrywise(self, trace, **knobs):
        """One-pass re-rank ≡ ``entrywise_kernel()`` in FPA lockstep
        (observe, then predict the requested file): identical
        predictions and final lists, equal re-rank, scan and
        Function-1 counts."""
        fa, fb = production_and_reference(**knobs)
        for ts, (fid, uid, pid, path) in enumerate(trace):
            record = make_record(fid, ts=ts, uid=uid, pid=pid, path=path)
            fa.observe(record)
            with entrywise_kernel():
                fb.observe(record)
                expected = fb.predict(fid)
            assert fa.predict(fid) == expected, ts
        for fid in _FIDS:
            with entrywise_kernel():
                expected = fb.correlators(fid)
            assert fa.correlators(fid) == expected
        got, want = fa.rerank_stats(), fb.rerank_stats()
        assert got.n_reevaluations == want.n_reevaluations
        assert got.entries_scanned == want.entries_scanned
        assert fa.f1_evaluations() == fb.f1_evaluations()


class TestWideNodes:
    def test_wide_nodes_end_to_end(self):
        """High successor capacity with a tight list capacity drives
        the one-pass rebuild's heap partial-select (d >= 64); the lists
        must still match the entrywise reference."""
        trace = generate_trace("hp", 12_000, seed=37)
        fa, fb = production_and_reference(
            max_strength=0.0, successor_capacity=256, correlator_capacity=8
        )
        fa.mine(trace)
        with entrywise_kernel():
            fb.mine(trace)
        node_map = fa.constructor.graph.node_map()
        widest = max(len(n.succ_fids) for n in node_map.values())
        assert widest >= 64  # the partial-select path engaged
        for fid in fb.constructor.graph.nodes():
            with entrywise_kernel():
                expected = fb.correlators(fid)
            assert fa.correlators(fid) == expected


class TestFootprint:
    @pytest.mark.parametrize("trace_name", ["hp", "ins"])
    def test_footprint_equals_reference(self, trace_name):
        """A re-rank keeps nothing beside the list, so after a one-shot
        ``mine`` the production footprint equals the entrywise
        reference's to the byte."""
        from repro.experiments.common import farmer_config_for

        trace = generate_trace(trace_name, 2_500, seed=1)
        config = farmer_config_for(trace_name, max_strength=0.4)
        prod = Farmer(config).mine(trace)
        with entrywise_kernel():
            ref = Farmer(config).mine(trace)
        assert prod.memory_bytes() == ref.memory_bytes()
