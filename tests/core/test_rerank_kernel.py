"""The one-pass re-rank kernel: bulk vs entrywise vs array.

The acceptance property for the re-rank kernels: over a randomized
20k-record synthetic trace, a Farmer on the bulk kernel (incremental
stamps on *and* off) — and, when numpy is available, on the vectorized
array kernel — returns bit-identical query results to the
entry-by-entry reference path, under both the lazy and the eager
schedule — while doing measurably less work (no insorts during
re-ranks, fewer Function-1 evaluation requests).
"""

import importlib.util

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.core.simcache import SharedSimilarityCache, SimilarityCache
from repro.traces.synthetic import generate_trace
from tests.conftest import make_record

KERNELS = {
    "bulk+stamps": dict(rerank_kernel="bulk", incremental_rerank=True),
    "bulk": dict(rerank_kernel="bulk", incremental_rerank=False),
    "entrywise": dict(rerank_kernel="entrywise"),
}
if importlib.util.find_spec("numpy") is not None:
    # the vectorized kernel rides every equivalence property below; on
    # a no-numpy interpreter the matrix simply shrinks to the pure
    # kernels (the array kernel refuses to construct, by contract)
    KERNELS["array"] = dict(rerank_kernel="array")


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
        """With stable vectors, the per-entry sim memo absorbs most
        Function-1 evaluation requests before they reach the cache."""
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
        # ...with far fewer Function-1 evaluation requests, and no more
        # actual recomputations
        assert stamped.sim_cache_stats().lookups < plain.sim_cache_stats().lookups / 2
        assert stamped.sim_cache_stats().misses <= plain.sim_cache_stats().misses

    def test_semantic_distances_batch_kernel(self):
        """The batch kernel answers a whole successor set in one pass,
        agreeing with the single-pair path and warming the cache (the
        counters and LRU order are pinned by TestRowConsultEquivalence)."""
        trace = generate_trace("hp", 1_000, seed=4)
        farmer = Farmer()
        for record in trace:
            farmer.observe(record)
        src = trace[0].fid
        dsts = list(farmer.constructor.graph.successors(src)) + [999_999]
        batch = farmer.miner.semantic_distances(src, dsts)
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


class _PerPairConsult:
    """Serves every row consult as per-pair ``semantic_distance`` calls
    on the owning miner: one ``lookup`` (then, on a miss, the public
    similarity function and one ``store``) per destination."""

    def consult_row(self, a, ver_a, va, row, compute=None):
        return [self.miner.semantic_distance(a, b) for b, _ver_b, _vb in row]


class _PerPairCache(_PerPairConsult, SimilarityCache):
    pass


class _PerPairSharedCache(_PerPairConsult, SharedSimilarityCache):
    pass


_PATHS = (None, "/a/b/c", "/a/b/d", "/a/a/b", "/x/a/b/c", "/x/y")
_records = st.tuples(
    st.integers(0, 9),  # fid
    st.integers(0, 2),  # uid
    st.integers(0, 2),  # pid
    st.sampled_from(_PATHS),
)
_steps = st.lists(
    st.one_of(
        # observe, then query the observed file (the FPA schedule)
        st.tuples(st.just("observe"), _records),
        # batch-mine a chunk (tick-driven flush), then query some file
        st.tuples(st.just("mine"), st.lists(_records, min_size=1, max_size=6)),
        # a query of some file
        st.tuples(st.just("ask"), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=60,
)


class TestRowConsultEquivalence:
    """The bulk kernel's batched cache consult is indistinguishable from
    per-pair ``semantic_distance`` consults: same lists and degrees, the
    same ``SimCacheStats`` and the same LRU key order — across cache
    capacities (3 forces evictions mid-row), shared and private caches,
    and every path method and mode (IPA bag is the inlined arithmetic,
    the rest call the public similarity functions)."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        steps=_steps,
        capacity=st.sampled_from([0, 3, None]),
        shared=st.booleans(),
        path_method=st.sampled_from(["ipa", "dpa"]),
        path_mode=st.sampled_from(["bag", "prefix"]),
        # "first" freezes vectors, so the stamps reuse similarities
        sv_policy=st.sampled_from(["merge", "first"]),
    )
    def test_row_consult_matches_per_pair_schedule(
        self, steps, capacity, shared, path_method, path_mode, sv_policy
    ):
        knobs = dict(
            max_strength=0.0,
            correlator_capacity=4,
            path_method=path_method,
            path_mode=path_mode,
            sv_policy=sv_policy,
        )
        if capacity is not None:
            knobs["sim_cache_capacity"] = capacity
        config = FarmerConfig(**knobs)
        cap = config.sim_cache_capacity
        under_test = Farmer(
            config, sim_cache=SharedSimilarityCache(cap) if shared else None
        )
        ref_cache = (_PerPairSharedCache if shared else _PerPairCache)(cap)
        ref = Farmer(config, sim_cache=ref_cache)
        ref_cache.miner = ref.miner
        cache = under_test.miner.sim_cache

        def assert_same_cache():
            assert cache.stats() == ref_cache.stats()
            assert list(cache._entries) == list(ref_cache._entries)

        ts = 0
        for kind, arg in steps:
            if kind == "ask":
                fid = arg
            else:
                records = []
                for fid, uid, pid, path in [arg] if kind == "observe" else arg:
                    ts += 1
                    records.append(
                        make_record(fid, ts=ts, uid=uid, pid=pid, path=path)
                    )
                for farmer in (under_test, ref):
                    if kind == "observe":
                        farmer.observe(records[0])
                    else:
                        farmer.mine(records)
            assert under_test.correlators(fid) == ref.correlators(fid)
            assert_same_cache()
        for fid in range(10):
            assert under_test.correlators(fid) == ref.correlators(fid)
        fids = list(range(11))  # fid 10 has no vector
        for src in fids:
            assert under_test.miner.semantic_distances(
                src, fids
            ) == ref.miner.semantic_distances(src, fids)
        assert_same_cache()
        assert under_test.rerank_stats() == ref.rerank_stats()
