"""The executed-parallel shard runtime (`service/runner.py`).

Acceptance property: for both backends, the runner's mined Correlator
Lists are identical to the sequential ``ShardedFarmer.mine`` over the
same records — entry for entry, degree for degree — and the stream
accounting (accepted records, boundary echoes, boundary seed) matches.
"""

import pytest

from repro.core.config import FarmerConfig
from repro.errors import ConfigError
from repro.service.runner import ParallelShardRunner
from repro.service.sharded import ShardedFarmer
from repro.traces.synthetic import generate_trace


def owned_lists(service: ShardedFarmer) -> dict[int, list[tuple[int, float]]]:
    """Every owned, re-ranked, non-empty Correlator List of a service."""
    out: dict[int, list[tuple[int, float]]] = {}
    for index, shard in enumerate(service.shards):
        service.flush_shard(index)
        for fid, lst in shard.miner.lists().items():
            if len(lst) and service.shard_of(fid) == index:
                out[fid] = [(e.fid, e.degree) for e in lst.entries()]
    return out


@pytest.fixture(scope="module")
def trace():
    return generate_trace("hp", 8_000, seed=17)


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_mined_lists_match_sequential(self, trace, backend):
        cfg = FarmerConfig(n_shards=4)
        expected = owned_lists(ShardedFarmer(cfg).mine(trace))
        service = ShardedFarmer(cfg)
        with ParallelShardRunner(service, n_workers=2, backend=backend) as runner:
            report = runner.mine(trace)
        assert owned_lists(service) == expected
        assert report.n_records == len(trace)
        assert service.n_observed == len(trace)
        assert report.backend == backend
        assert report.elapsed_s > 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_chunked_stream_matches_sequential(self, trace, backend):
        """Reusing one runner across batches carries the boundary seed
        exactly like sequential chunked mining."""
        cfg = FarmerConfig(n_shards=3)
        sequential = ShardedFarmer(cfg)
        chunks = [trace[i : i + 1000] for i in range(0, 4000, 1000)]
        for chunk in chunks:
            sequential.mine(chunk)
        service = ShardedFarmer(cfg)
        with ParallelShardRunner(service, n_workers=2, backend=backend) as runner:
            for chunk in chunks:
                runner.mine(chunk)
        assert owned_lists(service) == owned_lists(sequential)
        assert service.n_boundary_echoes == sequential.n_boundary_echoes

    def test_strict_isolation_thread(self, trace):
        cfg = FarmerConfig(n_shards=4, cross_shard_edges=False)
        expected = owned_lists(ShardedFarmer(cfg).mine(trace))
        service = ShardedFarmer(cfg)
        with ParallelShardRunner(service, n_workers=4) as runner:
            report = runner.mine(trace)
        assert owned_lists(service) == expected
        assert report.n_boundary_echoes == 0

    def test_thread_f1_count_matches_sequential(self, trace):
        """Every shard adds to one shared Function-1 counter; under
        concurrent flushes its increments stay exact, so the
        service-wide count equals the sequential service's."""
        cfg = FarmerConfig(n_shards=4)
        sequential = ShardedFarmer(cfg).mine(trace)
        service = ShardedFarmer(cfg)
        with ParallelShardRunner(service, n_workers=4) as runner:
            runner.mine(trace)
        assert service.f1_evaluations() == sequential.f1_evaluations() > 0


class TestRunnerContract:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            ParallelShardRunner(ShardedFarmer(), backend="fiber")

    def test_rejects_eager_schedule(self):
        service = ShardedFarmer(FarmerConfig(lazy_reevaluation=False))
        with pytest.raises(ConfigError):
            ParallelShardRunner(service)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigError):
            ParallelShardRunner(ShardedFarmer(), n_workers=0)

    def test_default_workers_bounded_by_shards(self):
        runner = ParallelShardRunner(ShardedFarmer(FarmerConfig(n_shards=2)))
        assert 1 <= runner.n_workers <= 2

    def test_close_is_idempotent(self, trace):
        runner = ParallelShardRunner(ShardedFarmer(FarmerConfig(n_shards=2)))
        runner.mine(trace[:500])
        runner.close()
        runner.close()

    def test_report_phases_sum_to_elapsed(self, trace):
        service = ShardedFarmer(FarmerConfig(n_shards=2))
        with ParallelShardRunner(service, n_workers=2) as runner:
            report = runner.mine(trace[:1000])
        assert report.elapsed_s == pytest.approx(
            report.partition_s + report.ingest_s + report.flush_s
        )
        assert report.throughput > 0


class TestProcessDispatch:
    def test_payloads_slim_vs_whole_shard_pickles(self):
        """The process backend ships the shared (config, vector store)
        snapshot once per batch, so per-dispatch payload bytes stay far
        below whole-shard pickling."""
        import pickle

        trace = generate_trace("hp", 4_000, seed=47)
        service = ShardedFarmer(FarmerConfig(max_strength=0.3, n_shards=4))
        with ParallelShardRunner(
            service, backend="process", n_workers=2
        ) as runner:
            report = runner.mine(trace)
        assert report.dispatch_bytes > 0
        assert report.shared_bytes > 0
        # the old protocol pickled each whole shard Farmer per dispatch
        # (graph + vector store + vocabulary); the slim payloads must
        # undercut that by a wide margin
        whole = sum(len(pickle.dumps(shard)) for shard in service.shards)
        assert report.dispatch_bytes < whole / 2


class TestSharedStoreSafety:
    def test_shared_stores_are_picklable(self):
        """The process backend ships shard snapshots: the lock-bearing
        shared stores must round-trip through pickle."""
        import pickle

        service = ShardedFarmer(FarmerConfig(n_shards=2))
        service.mine(generate_trace("hp", 400, seed=3))
        for shard in service.shards:
            clone = pickle.loads(pickle.dumps(shard))
            fids = set(shard.constructor.graph.nodes())
            for fid in fids:
                assert clone.correlators(fid) == shard.correlators(fid)

    def test_concurrent_f1_counts_are_exact(self):
        """The shared Function-1 counter loses no increment when more
        threads than cores add to it under a tiny switch interval."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.cominer import F1Counter

        counter = F1Counter()

        def add_many(_):
            for _ in range(5_000):
                counter.add(3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(add_many, i) for i in range(8)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert counter.stats().evaluations == 8 * 5_000 * 3

    def test_concurrent_interning_is_consistent(self):
        """Hammer one ThreadSafeVocabulary from many threads: every
        thread must observe the same token → id mapping."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.vsm.vocabulary import ThreadSafeVocabulary

        vocab = ThreadSafeVocabulary()
        tokens = [("user", i % 50) for i in range(2000)]

        def intern_all(_):
            return [vocab.scalar_token(a, v) for a, v in tokens]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(intern_all, range(8)))
        assert all(r == results[0] for r in results)
        assert len(vocab) == 50
