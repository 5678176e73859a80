"""Queries racing live ingest: the service lock is the miner's only
synchronisation.

The shared vocabulary, vector store and Function-1 counter are plain
objects, so ``OnlineService._service_lock`` alone must keep the consumer
thread and concurrent ``predict`` / ``correlators`` / ``stats`` callers
from interleaving inside the miner. Four query threads hammer the
service while the consumer thread folds the stream; no call may raise,
and after ``drain()`` the mined state must equal a batch ``mine()`` of
the accepted stream.

A query that lands mid-stream ranks its list at that moment (the lazy
schedule's documented freshness scope: a ranked list is re-ranked only
when its own node changes), so the post-drain comparison first marks
every list dirty. Every answer is then a pure function of the end-of-
stream graph and vector state, which is exactly what a lost update or
a torn write would corrupt.
"""

import sys
import threading
import time

from repro.core.config import FarmerConfig
from repro.online.pipeline import Admission, AdmissionPolicy, OnlineService
from repro.service.sharded import ShardedFarmer
from tests.conftest import cached_trace

CFG = FarmerConfig(
    n_shards=4,
    shard_policy="consistent_hash",
    max_strength=0.3,
    replication=True,
    standby_sync_interval=512,
)
N_QUERY_THREADS = 4


def rank_against_end_state(service: ShardedFarmer) -> None:
    for shard in service.shards:
        for fid in shard.constructor.graph.nodes():
            shard.miner.mark_dirty(fid)


class TestQueriesDuringIngest:
    def test_concurrent_queries_never_raise_and_state_matches_mine(self):
        records = cached_trace("hp", 4_000, 13)
        fids = sorted({r.fid for r in records})
        online = OnlineService(
            CFG,
            # wide-open watermarks: every offer is accepted undegraded,
            # so the accepted stream is the whole trace
            policy=AdmissionPolicy(
                capacity=8_192, echo_watermark=1.0, defer_watermark=1.0
            ),
            batch_size=64,
        )
        stop = threading.Event()
        errors: list[Exception] = []
        calls = [0] * N_QUERY_THREADS
        # consumed-record counts seen by queries: proof they overlapped
        # the live ingest rather than running before or after it
        seen_consumed: list[int] = []

        def query_loop(index: int) -> None:
            step = 0
            try:
                while not stop.is_set():
                    fid = fids[(index * 97 + step * 31) % len(fids)]
                    predicted = online.predict(fid)
                    assert isinstance(predicted, list)
                    online.correlators(fid)
                    if step % 8 == 0:
                        stats = online.stats()
                        seen_consumed.append(stats.pipeline.n_consumed)
                    calls[index] += 1
                    step += 1
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [
            threading.Thread(target=query_loop, args=(i,), daemon=True)
            for i in range(N_QUERY_THREADS)
        ]
        try:
            online.start()
            for thread in threads:
                thread.start()
            for start in range(0, len(records), 250):
                for record in records[start : start + 250]:
                    assert online.offer(record) is Admission.ACCEPTED
                # let every query thread land calls on this stretch of
                # the stream before more records arrive
                marks = list(calls)
                deadline = time.monotonic() + 60
                while (
                    any(now == then for now, then in zip(calls, marks))
                    and not errors
                    and time.monotonic() < deadline
                ):
                    stop.wait(0.001)
            online.drain()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            online.stop()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(n > 0 for n in calls)
        assert any(0 < n < len(records) for n in seen_consumed)

        batch = ShardedFarmer(CFG).mine(records)
        service = online.service
        assert service.n_observed == batch.n_observed == len(records)
        assert service.n_boundary_echoes == batch.n_boundary_echoes
        rank_against_end_state(service)
        for fid in fids:
            assert online.predict(fid) == batch.predict(fid)
            assert online.correlators(fid) == batch.correlators(fid)
        assert online.snapshot() == batch.snapshot()
