"""Micro-benchmarks of the FARMER hot paths.

These measure the per-request mining cost the paper calls "reasonable
overhead": the full observe() pipeline, the similarity kernels, the graph
update and the Correlator List maintenance. The mine/flush benches also
assert the *op-count* reductions behind the one-pass re-rank kernel
(zero insorts per re-rank, fewer Function-1 evaluations), so the
speedup claims are backed by counted work, not just wall clock.

Run with ``--json`` (or ``BENCH_JSON=dir``) to persist the numbers to
``BENCH_core.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import FarmerConfig
from repro.core.extractor import Extractor
from repro.core.farmer import Farmer
from repro.graph.correlation_graph import CorrelationGraph
from repro.graph.correlator_list import CorrelatorList
from repro.vsm.similarity import dpa_similarity, ipa_similarity
from repro.vsm.vocabulary import Vocabulary
from tests.oracle import eager_observe, entrywise_kernel


def _sims_per_request(farmer: Farmer) -> float:
    """Function-1 evaluations per mined request."""
    n = farmer.stats().n_observed
    return farmer.f1_evaluations() / n if n else 0.0


def bench_farmer_observe_throughput(benchmark, hp_bench_trace, bench_record):
    """Full pipeline: requests mined per second (paper's overhead claim).

    Mines with the production (lazy, stamped) schedule and prints the
    similarity computations per request next to the eager reference
    (``tests.oracle.eager_observe``), so the lazy schedule's win is
    visible in BENCH output.
    """

    def mine():
        farmer = Farmer()
        for record in hp_bench_trace:
            farmer.observe(record)
        farmer.snapshot()  # pay the deferred re-ranks inside the measurement
        return farmer

    farmer = benchmark.pedantic(mine, rounds=2, iterations=1)
    assert farmer.stats().n_observed == len(hp_bench_trace)
    eager = Farmer()
    for record in hp_bench_trace:
        eager_observe(eager, record)
    per_req_us = benchmark.stats["mean"] / len(hp_bench_trace) * 1e6
    lazy_sims = _sims_per_request(farmer)
    eager_sims = _sims_per_request(eager)
    ratio = eager_sims / lazy_sims if lazy_sims else float("inf")
    print(f"\n[mining cost: {per_req_us:.1f} us/request]")
    print(
        f"[sim computations/request: lazy {lazy_sims:.2f} vs eager "
        f"{eager_sims:.2f} ({ratio:.1f}x fewer)]"
    )
    bench_record(
        us_per_request=per_req_us,
        records_per_s=len(hp_bench_trace) / benchmark.stats["mean"],
        sims_per_request=lazy_sims,
    )


def bench_farmer_eager_vs_lazy(benchmark, hp_bench_trace, bench_record):
    """Eager vs lazy observe() throughput on the same trace.

    The benchmark measures the lazy hot path (queries deferred); the
    eager reference (``tests.oracle.eager_observe``) is timed alongside
    and the speedup printed.
    """
    n = len(hp_bench_trace)

    def mine_lazy():
        farmer = Farmer()
        for record in hp_bench_trace:
            farmer.observe(record)
        return farmer

    farmer = benchmark.pedantic(mine_lazy, rounds=3, iterations=1)
    assert farmer.stats().n_observed == n
    start = time.perf_counter()
    eager = Farmer()
    for record in hp_bench_trace:
        eager_observe(eager, record)
    eager_elapsed = time.perf_counter() - start
    lazy_us = benchmark.stats["mean"] / n * 1e6
    eager_us = eager_elapsed / n * 1e6
    print(
        f"\n[observe(): lazy {lazy_us:.1f} us/request vs eager "
        f"{eager_us:.1f} us/request ({eager_us / lazy_us:.1f}x)]"
    )
    bench_record(
        lazy_us_per_request=lazy_us,
        eager_us_per_request=eager_us,
        speedup=eager_us / lazy_us,
    )


def bench_predict_under_churn(benchmark, hp_bench_trace, bench_record):
    """The FPA loop: every request mines and immediately predicts, so
    each prediction pays the deferred re-rank of a dirty list."""

    def churn():
        farmer = Farmer()
        for record in hp_bench_trace:
            farmer.observe(record)
            farmer.predict(record.fid)
        return farmer

    farmer = benchmark.pedantic(churn, rounds=2, iterations=1)
    per_req_us = benchmark.stats["mean"] / len(hp_bench_trace) * 1e6
    sims = _sims_per_request(farmer)
    print(f"\n[observe+predict: {per_req_us:.1f} us/request; sims/request {sims:.2f}]")
    bench_record(
        us_per_request=per_req_us,
        records_per_s=len(hp_bench_trace) / benchmark.stats["mean"],
        sims_per_request=sims,
    )


def bench_farmer_mine_batch(benchmark, hp_bench_trace, bench_record):
    """The batched mine() fast path (tick-driven flush at batch end).

    The acceptance bench for the re-rank: it times the production
    one-pass re-rank and, within the *same run*, asserts bit-identical
    lists against the entrywise reference
    (``tests.oracle.entrywise_kernel``) and the op-count reductions:
    zero binary insertions during re-ranks where the entrywise kernel
    (clear + per-entry ``update``) pays one per retained entry, and
    reevaluation/scan counters in exact parity.
    """

    def mine():
        return Farmer().mine(hp_bench_trace)

    farmer = benchmark.pedantic(mine, rounds=5, iterations=1, warmup_rounds=2)
    assert farmer.stats().n_observed == len(hp_bench_trace)
    per_req_us = benchmark.stats["min"] / len(hp_bench_trace) * 1e6
    rps = len(hp_bench_trace) / benchmark.stats["min"]
    with entrywise_kernel():
        reference = Farmer().mine(hp_bench_trace)
        expected = {
            fid: reference.correlators(fid)
            for fid in reference.constructor.graph.nodes()
        }
    stats = farmer.rerank_stats()
    ref_stats = reference.rerank_stats()
    assert stats.n_reevaluations == ref_stats.n_reevaluations
    assert stats.entries_scanned == ref_stats.entries_scanned
    assert stats.insort_ops == 0  # the whole point of rebuild()
    assert ref_stats.insort_ops > 0
    # the timing only counts if the same run proves equivalence
    for fid, correlators in expected.items():
        assert farmer.correlators(fid) == correlators
    print(
        f"\n[batch mine (bulk): {per_req_us:.1f} us/request "
        f"({rps:,.0f} rec/s); insorts/re-rank: 0 vs entrywise "
        f"{ref_stats.insort_ops / ref_stats.n_reevaluations:.1f}]"
    )
    bench_record(
        us_per_request=per_req_us,
        records_per_s=rps,
        bulk_insort_ops=stats.insort_ops,
        entrywise_insort_ops=ref_stats.insort_ops,
        n_reevaluations=stats.n_reevaluations,
        entries_scanned=stats.entries_scanned,
    )


def bench_rerank_op_counts(benchmark, hp_bench_trace, bench_record):
    """Asserted op-count reductions on the FPA loop: the re-rank's
    stamps cut Function-1 evaluations and rebuild() eliminates re-rank
    insorts, at bit-identical output. The plain (stamp-free) reference
    is the entrywise kernel (``tests.oracle.entrywise_kernel``), which
    counts Function 1 once per scanned pair."""

    def fpa():
        farmer = Farmer(FarmerConfig(vector_freeze_threshold=8))
        for record in hp_bench_trace:
            farmer.observe(record)
            farmer.predict(record.fid)
        return farmer

    stamped = benchmark.pedantic(fpa, rounds=2, iterations=1)
    with entrywise_kernel():
        plain = entrywise = fpa()
    s_f1, p_f1 = stamped.f1_evaluations(), plain.f1_evaluations()
    s_ops, e_ops = stamped.rerank_stats(), entrywise.rerank_stats()
    # fewer than half the Function-1 evaluations...
    assert s_f1 < p_f1 / 2
    # ...never more...
    assert s_f1 <= p_f1
    # ...and a fraction of the insort work per re-rank
    assert s_ops.insort_ops < e_ops.insort_ops / 2
    print(
        f"\n[Function-1 evaluations: stamped {s_f1} vs plain "
        f"{p_f1} ({p_f1 / s_f1:.1f}x fewer); "
        f"insorts: bulk {s_ops.insort_ops} vs entrywise {e_ops.insort_ops} "
        f"({e_ops.insort_ops / max(1, s_ops.insort_ops):.1f}x fewer)]"
    )
    bench_record(
        stamped_f1_evaluations=s_f1,
        plain_f1_evaluations=p_f1,
        bulk_insort_ops=s_ops.insort_ops,
        entrywise_insort_ops=e_ops.insort_ops,
    )


def bench_chunked_mine_incremental(benchmark, hp_bench_trace, bench_record):
    """The incremental service pattern: mine() in small chunks. The
    stamps skip entries whose inputs did not change across chunk
    boundaries — asserted via the skip counter."""
    chunk = 125

    def chunked():
        farmer = Farmer()
        for i in range(0, len(hp_bench_trace), chunk):
            farmer.mine(hp_bench_trace[i : i + chunk])
        return farmer

    farmer = benchmark.pedantic(chunked, rounds=2, iterations=1)
    ops = farmer.rerank_stats()
    assert ops.entries_skipped_unchanged > 0
    per_req_us = benchmark.stats["mean"] / len(hp_bench_trace) * 1e6
    print(
        f"\n[chunked mine ({chunk}/batch): {per_req_us:.1f} us/request; "
        f"{ops.entries_skipped_unchanged}/{ops.entries_scanned} entries "
        f"fully skipped by stamps]"
    )
    bench_record(
        us_per_request=per_req_us,
        entries_scanned=ops.entries_scanned,
        entries_skipped_unchanged=ops.entries_skipped_unchanged,
    )


def bench_extractor(benchmark, hp_bench_trace):
    """Stage 1 alone: semantic-vector extraction."""
    extractor = Extractor(("user", "process", "host", "path"), Vocabulary())
    records = hp_bench_trace[:1000]
    benchmark(lambda: [extractor.extract(r) for r in records])


def bench_ipa_similarity(benchmark, hp_bench_trace):
    """Function 1 (IPA) over realistic vectors."""
    extractor = Extractor(("user", "process", "host", "path"), Vocabulary())
    vectors = [extractor.extract(r) for r in hp_bench_trace[:200]]
    pairs = [(vectors[i], vectors[(i * 7 + 3) % len(vectors)]) for i in range(200)]
    benchmark(lambda: [ipa_similarity(a, b) for a, b in pairs])


def bench_dpa_similarity(benchmark, hp_bench_trace):
    """Function 1 (DPA) over realistic vectors."""
    extractor = Extractor(("user", "process", "host", "path"), Vocabulary())
    vectors = [extractor.extract(r) for r in hp_bench_trace[:200]]
    pairs = [(vectors[i], vectors[(i * 7 + 3) % len(vectors)]) for i in range(200)]
    benchmark(lambda: [dpa_similarity(a, b) for a, b in pairs])


def bench_graph_observe(benchmark, hp_bench_trace):
    """Stage 2 alone: sliding-window graph updates."""
    fids = [r.fid for r in hp_bench_trace]

    def build():
        graph = CorrelationGraph(window=4)
        for fid in fids:
            graph.observe(fid)
        return graph

    graph = benchmark.pedantic(build, rounds=3, iterations=1)
    assert graph.n_nodes() > 0


def bench_correlator_list_update(benchmark):
    """Stage 3/4: threshold + sorted insert under churn."""
    updates = [((i * 17) % 40, 0.3 + ((i * 13) % 70) / 100.0) for i in range(2000)]

    def churn():
        lst = CorrelatorList(threshold=0.4, capacity=16)
        for fid, degree in updates:
            lst.update(fid, degree)
        return lst

    lst = benchmark.pedantic(churn, rounds=5, iterations=1)
    assert lst.is_sorted()


def bench_correlator_list_rebuild(benchmark, bench_record):
    """Stage 3/4 bulk path: one-pass rebuild vs 2000 sorted inserts."""
    candidates = [
        (fid, 0.3 + ((fid * 13) % 70) / 100.0) for fid in range(40)
    ]

    def rebuilds():
        lst = CorrelatorList(threshold=0.4, capacity=16)
        for _ in range(50):
            lst.rebuild(candidates)
        return lst

    lst = benchmark.pedantic(rebuilds, rounds=5, iterations=1)
    assert lst.is_sorted()
    assert lst.insort_ops == 0
    bench_record(rebuild_us=benchmark.stats["mean"] / 50 * 1e6)
