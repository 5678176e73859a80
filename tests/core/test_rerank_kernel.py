"""The one-pass re-rank against the entrywise reference kernel.

The acceptance property for the re-rank: over a randomized 20k-record
synthetic trace, a production Farmer (stamped one-pass re-rank) returns
bit-identical query results to the entry-by-entry, stamp-free reference
(``tests.oracle.entrywise_kernel``), under both the lazy and the eager
schedule — while doing measurably less work (no insorts during
re-ranks, fewer Function-1 evaluations).
"""

import pytest

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
        """Chunked batch mining (the incremental service pattern, where
        the stamps actually skip work) stays bit-identical."""
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
        # the stamps must have skipped at least some unchanged entries
        # (window-straddling predecessors across chunk boundaries)
        assert prod.rerank_stats().entries_skipped_unchanged > 0
        assert ref.rerank_stats().entries_skipped_unchanged == 0

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
        entrywise reference pays one per scanned entry."""
        trace = generate_trace("hp", 3_000, seed=3)
        prod, ref = production_and_reference(max_strength=0.3)
        _fpa(prod, trace)
        with entrywise_kernel():
            _fpa(ref, trace)
        bulk = prod.rerank_stats()
        entry = ref.rerank_stats()
        assert bulk.n_reevaluations == entry.n_reevaluations
        assert bulk.entries_scanned == entry.entries_scanned
        # production insorts come only from edge-log replays
        assert bulk.insort_ops < entry.insort_ops / 2

    def test_stamps_cut_function1_requests(self):
        """With stable vectors, the per-entry stamps reuse most
        similarities instead of re-evaluating Function 1 (the entrywise
        reference counts Function 1 once per scanned pair, as a
        stamp-free re-rank does)."""
        trace = generate_trace("hp", 4_000, seed=9)
        stamped, plain = production_and_reference(vector_freeze_threshold=8)
        _fpa(stamped, trace)
        with entrywise_kernel():
            _fpa(plain, trace)
        # identical outputs...
        fids = set(stamped.constructor.graph.nodes())
        for fid in fids:
            with entrywise_kernel():
                expected = plain.correlators(fid)
            assert stamped.correlators(fid) == expected
        # ...with far fewer Function-1 evaluations
        assert stamped.f1_evaluations() < plain.f1_evaluations() / 2

    def test_rerank_stats_exposed_via_farmer_stats(self):
        farmer = Farmer()
        farmer.mine(generate_trace("hp", 500, seed=2))
        stats = farmer.stats()
        assert stats.rerank == farmer.rerank_stats()
        assert stats.rerank.n_reevaluations > 0
        assert stats.rerank.entries_scanned > 0


class TestStampCorrectness:
    def test_stamp_never_serves_stale_degree(self):
        """A stamp only matches when every input matches, so a changed
        vector or frequency always recomputes — spot-check by forcing
        vector churn between queries."""
        from tests.conftest import make_record

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


def _assert_second_rank_skips_whole_list(config: FarmerConfig) -> None:
    """mine → dirty+query (primes the skip state) → dirty+query again:
    the second rank must skip the full candidate scan, advancing
    ``entries_skipped_unchanged`` by exactly the successor count while
    serving the identical list."""
    trace = generate_trace("hp", 2_000, seed=17)
    farmer = Farmer(config)
    farmer.mine(trace)
    node_map = farmer.constructor.graph.node_map()
    fid = max(node_map, key=lambda g: len(node_map[g].succ_fids))
    d = len(node_map[fid].succ_fids)
    assert d > 0
    farmer.miner.mark_dirty(fid)
    first = farmer.correlators(fid)
    farmer.miner.mark_dirty(fid)
    before = farmer.rerank_stats()
    again = farmer.correlators(fid)
    after = farmer.rerank_stats()
    assert again == first
    assert after.n_reevaluations - before.n_reevaluations == 1
    assert after.entries_scanned - before.entries_scanned == d
    assert after.entries_skipped_unchanged - before.entries_skipped_unchanged == d


class TestFullSkip:
    def test_bulk_whole_list_epoch_skip(self):
        """The re-rank's (tick, epoch) stamp proves the whole list
        unchanged and skips the scan."""
        _assert_second_rank_skips_whole_list(FarmerConfig())

    def test_skip_invalidated_by_vector_churn(self):
        """A vector-store epoch move disarms the full skip: the next
        rank rescans instead of serving the stale list."""
        farmer = Farmer(FarmerConfig(sv_policy="latest", max_strength=0.0))
        for i in range(6):
            farmer.observe(make_record(1, uid=1, pid=1, host=1, ts=2 * i))
            farmer.observe(make_record(2, uid=1, pid=1, host=1, ts=2 * i + 1))
        farmer.miner.mark_dirty(1)
        farmer.correlators(1)  # skip state now primed
        # churn fid 2's vector (new uid/pid/host => new scalar ids)
        farmer.observe(make_record(2, uid=9, pid=9, host=9, ts=100))
        farmer.miner.mark_dirty(1)
        before = farmer.rerank_stats()
        after_list = {e.fid: e.degree for e in farmer.correlators(1)}
        stats = farmer.rerank_stats()
        assert stats.entries_skipped_unchanged == before.entries_skipped_unchanged
        assert after_list[2] == pytest.approx(farmer.correlation_degree(1, 2))


class TestStampReuseEquivalence:
    def test_vector_churn_interleaved_queries(self):
        """Per-entry stamp reuse under the churny "latest" policy stays
        bit-identical to the stamp-free entrywise oracle at every
        query."""
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
            dict(vector_freeze_threshold=4),
        ],
        ids=["dpa", "prefix", "p=1", "p=0", "freeze"],
    )
    def test_off_fast_path_configs(self, overrides):
        """Configs that leave the inlined IPA-bag row (dpa, prefix
        mode) or degenerate the Function-2 blend still agree with the
        stamp-free oracle."""
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


class TestMemoAccounting:
    @pytest.mark.parametrize("trace_name", ["hp", "ins"])
    def test_memo_is_the_only_footprint_difference(self, trace_name):
        """On a one-shot ``mine`` the re-rank memo (``memo_bytes``: the
        entry stamps and ranked epochs) is all that separates the
        production footprint from the stamp-free reference's — the
        quantity Table 4 subtracts."""
        from repro.experiments.common import farmer_config_for

        trace = generate_trace(trace_name, 2_500, seed=1)
        config = farmer_config_for(trace_name, max_strength=0.4)
        prod = Farmer(config).mine(trace)
        with entrywise_kernel():
            ref = Farmer(config).mine(trace)
        assert prod.miner.memo_bytes() > 0
        assert ref.miner.memo_bytes() == 0
        assert ref.memory_bytes() == prod.memory_bytes() - prod.miner.memo_bytes()
