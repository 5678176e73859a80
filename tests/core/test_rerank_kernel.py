"""The one-pass re-rank kernel: bulk vs entrywise.

The acceptance property for the re-rank kernels: over a randomized
20k-record synthetic trace, a Farmer on the bulk kernel (incremental
stamps on *and* off) returns bit-identical query results to the
entry-by-entry reference path, under both the lazy and the eager
schedule — while doing measurably less work (no insorts during
re-ranks, fewer Function-1 evaluations).
"""

import pytest

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.traces.synthetic import generate_trace
from tests.conftest import make_record

KERNELS = {
    "bulk+stamps": dict(rerank_kernel="bulk", incremental_rerank=True),
    "bulk": dict(rerank_kernel="bulk", incremental_rerank=False),
    "entrywise": dict(rerank_kernel="entrywise"),
}


def farmers_for(**common):
    return {k: Farmer(FarmerConfig(**common, **kw)) for k, kw in KERNELS.items()}


class TestKernelEquivalence:
    def test_20k_trace_equivalence_lazy(self, synthetic_trace):
        """Acceptance property (lazy schedule): bulk (stamps on and
        off) and entrywise agree at every query point of a 20k trace."""
        trace = synthetic_trace("hp", 20_000, seed=23)
        farmers = farmers_for(max_strength=0.3)
        ref = farmers["entrywise"]
        seen: set[int] = set()
        for i, record in enumerate(trace):
            for f in farmers.values():
                f.observe(record)
            seen.add(record.fid)
            expected = ref.correlators(record.fid)
            for name, f in farmers.items():
                if f is not ref:
                    assert f.correlators(record.fid) == expected, (name, i)
            if i % 4000 == 3999:
                for fid in seen:
                    expected = ref.correlators(fid)
                    for f in farmers.values():
                        assert f.correlators(fid) == expected
        snaps = {k: f.snapshot() for k, f in farmers.items()}
        assert snaps["bulk+stamps"] == snaps["entrywise"]
        assert snaps["bulk"] == snaps["entrywise"]

    def test_eager_schedule_equivalence(self):
        """Same property under the paper's literal per-request
        schedule (lazy_reevaluation=False)."""
        trace = generate_trace("hp", 6_000, seed=7)
        farmers = farmers_for(max_strength=0.3, lazy_reevaluation=False)
        ref = farmers["entrywise"]
        for record in trace:
            for f in farmers.values():
                f.observe(record)
            expected = ref.predict(record.fid)
            assert all(
                f.predict(record.fid) == expected for f in farmers.values()
            )

    def test_batch_mine_equivalence(self):
        """Chunked batch mining (the incremental service pattern, where
        the stamps actually skip work) stays bit-identical."""
        trace = generate_trace("hp", 8_000, seed=5)
        farmers = farmers_for(max_strength=0.3)
        for start in range(0, len(trace), 250):
            for f in farmers.values():
                f.mine(trace[start : start + 250])
        ref = farmers["entrywise"]
        fids = set(ref.constructor.graph.nodes())
        for f in farmers.values():
            assert set(f.constructor.graph.nodes()) == fids
        for fid in fids:
            expected = ref.correlators(fid)
            for f in farmers.values():
                assert f.correlators(fid) == expected
        # the stamps must have skipped at least some unchanged entries
        # (window-straddling predecessors across chunk boundaries)
        assert (
            farmers["bulk+stamps"].rerank_stats().entries_skipped_unchanged > 0
        )
        assert farmers["bulk"].rerank_stats().entries_skipped_unchanged == 0

    def test_small_capacity_overflow_equivalence(self):
        """The capacity cut is where ranking paths could diverge; pin
        equality under heavy list overflow (capacity 2, threshold 0)."""
        trace = generate_trace("hp", 4_000, seed=13)
        farmers = farmers_for(max_strength=0.0, correlator_capacity=2)
        ref = farmers["entrywise"]
        for record in trace:
            for f in farmers.values():
                f.observe(record)
            expected = ref.correlators(record.fid)
            assert all(
                f.correlators(record.fid) == expected for f in farmers.values()
            )


class TestOpCounts:
    def test_bulk_rerank_never_insorts(self):
        """Re-ranks on the bulk kernel cost zero binary insertions; the
        entrywise reference pays one per scanned entry."""
        trace = generate_trace("hp", 3_000, seed=3)
        farmers = farmers_for(max_strength=0.3)
        for record in trace:
            for f in farmers.values():
                f.observe(record)
                f.predict(record.fid)
        bulk = farmers["bulk+stamps"].rerank_stats()
        entry = farmers["entrywise"].rerank_stats()
        assert bulk.n_reevaluations == entry.n_reevaluations
        assert bulk.entries_scanned == entry.entries_scanned
        # bulk insorts come only from the eager single-edge refreshes
        assert bulk.insort_ops < entry.insort_ops / 2

    def test_stamps_cut_function1_requests(self):
        """With stable vectors, the per-entry stamps reuse most
        similarities instead of re-evaluating Function 1."""
        trace = generate_trace("hp", 4_000, seed=9)

        def fpa(with_stamps: bool) -> Farmer:
            f = Farmer(
                FarmerConfig(
                    vector_freeze_threshold=8, incremental_rerank=with_stamps
                )
            )
            for record in trace:
                f.observe(record)
                f.predict(record.fid)
            return f

        stamped = fpa(True)
        plain = fpa(False)
        # identical outputs...
        fids = set(stamped.constructor.graph.nodes())
        for fid in fids:
            assert stamped.correlators(fid) == plain.correlators(fid)
        # ...with far fewer Function-1 evaluations
        assert stamped.f1_evaluations() < plain.f1_evaluations() / 2

    def test_semantic_distances_batch_kernel(self):
        """The batch kernel answers a whole successor set in one pass,
        agreeing with the single-pair path and counting one evaluation
        per destination that has a vector."""
        trace = generate_trace("hp", 1_000, seed=4)
        farmer = Farmer()
        for record in trace:
            farmer.observe(record)
        src = trace[0].fid
        dsts = list(farmer.constructor.graph.successors(src)) + [999_999]
        before = farmer.f1_evaluations()
        batch = farmer.miner.semantic_distances(src, dsts)
        assert farmer.f1_evaluations() - before == len(dsts) - 1
        assert len(batch) == len(dsts)
        assert batch == [farmer.semantic_distance(src, d) for d in dsts]
        assert batch[-1] == 0.0  # unseen fid
        # unseen source: all zeros
        assert farmer.miner.semantic_distances(888_888, dsts) == [0.0] * len(dsts)

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

    def test_config_validates_kernel_name(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            FarmerConfig(rerank_kernel="quantum")


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
        """The bulk kernel's (tick, epoch) stamp proves the whole list
        unchanged and skips the scan."""
        _assert_second_rank_skips_whole_list(
            FarmerConfig(rerank_kernel="bulk", incremental_rerank=True)
        )

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


def _stamped_and_plain(**common) -> tuple[Farmer, Farmer]:
    return (
        Farmer(FarmerConfig(rerank_kernel="bulk", **common)),
        Farmer(
            FarmerConfig(rerank_kernel="bulk", incremental_rerank=False, **common)
        ),
    )


class TestStampReuseEquivalence:
    def test_vector_churn_interleaved_queries(self):
        """Per-entry stamp reuse under the churny "latest" policy stays
        bit-identical to the stamp-free bulk oracle at every query."""
        trace = generate_trace("hp", 6_000, seed=29)
        fa, fb = _stamped_and_plain(
            max_strength=0.0, sv_policy="latest", weight_p=0.9
        )
        for i, record in enumerate(trace):
            fa.observe(record)
            fb.observe(record)
            assert fa.correlators(record.fid) == fb.correlators(record.fid), i
        assert fa.snapshot() == fb.snapshot()

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
        fa, fb = _stamped_and_plain(max_strength=0.0, **overrides)
        for i, record in enumerate(trace):
            fa.observe(record)
            fb.observe(record)
            assert fa.predict(record.fid) == fb.predict(record.fid), i
        fids = set(fb.constructor.graph.nodes())
        assert set(fa.constructor.graph.nodes()) == fids
        for fid in fids:
            assert fa.correlators(fid) == fb.correlators(fid)


class TestWideNodes:
    def test_wide_nodes_end_to_end(self):
        """High successor capacity with a tight list capacity drives
        the bulk rebuild's heap partial-select (d >= 64); the lists
        must still match the entrywise reference."""
        trace = generate_trace("hp", 12_000, seed=37)
        common = dict(
            max_strength=0.0, successor_capacity=256, correlator_capacity=8
        )
        fa = Farmer(FarmerConfig(rerank_kernel="bulk", **common))
        fb = Farmer(FarmerConfig(rerank_kernel="entrywise", **common))
        fa.mine(trace)
        fb.mine(trace)
        node_map = fa.constructor.graph.node_map()
        widest = max(len(n.succ_fids) for n in node_map.values())
        assert widest >= 64  # the partial-select path engaged
        for fid in fb.constructor.graph.nodes():
            assert fa.correlators(fid) == fb.correlators(fid)
