"""Executed-parallel shard runtime: real threads/processes, not a model.

:mod:`repro.service.harness` *models* shard concurrency (each substream
replayed sequentially, service wall time = slowest shard).
:class:`ParallelShardRunner` *executes* it: the shards of a
:class:`~repro.service.sharded.ShardedFarmer` ingest their substreams
and flush their Correlator Lists on a real executor, and the measured
quantity is wall-clock elapsed time.

Phase structure (and why it is correct)
---------------------------------------

``mine`` runs the same two-phase schedule as the sequential
``ShardedFarmer.mine`` — every shard ingests before any shard flushes —
with each phase fanned out across workers:

* **Ingest** writes three shared structures. The vocabulary locks
  interning (:class:`~repro.vsm.vocabulary.ThreadSafeVocabulary`); the
  vector store locks updates
  (:class:`~repro.core.vector_store.ThreadSafeVectorStore`), and the
  router guarantees concurrent shards write *disjoint* fids (echo
  records skip vector updates entirely). Per-shard graphs are private.
* **Barrier** — the executor joins all ingest futures.
* **Flush** only *reads* the now-quiescent vector store; writes go to
  shard-private lists and the lock-protected Function-1 counter.

Mined lists are therefore bit-identical to the sequential
``ShardedFarmer.mine`` over the same records, for both backends
(property-tested), and under the thread backend so is the service-wide
Function-1 evaluation count. One source of benign nondeterminism
remains and is out of the equivalence scope: vocabulary *id
assignment* varies with thread interleaving (ids are opaque —
similarity compares them only for equality, so degrees are
unaffected).

Backends
--------

* ``"thread"`` — both phases run on a ``ThreadPoolExecutor``. Under
  CPython's GIL this mostly exercises the locking story rather than
  speeding up pure-Python mining; it is the correctness backend (CI
  runs it to catch lock regressions) and the performance backend on
  free-threaded builds.
* ``"process"`` — ingest runs in the parent (it writes the shared
  vocabulary/vector store; shipping those writes back across process
  boundaries would cost more than the ingest itself), then the flush —
  the Function-1-heavy phase — fans out on a ``ProcessPoolExecutor``.
  The shared read-state a flush needs (config + end-of-batch vector
  store) is snapshotted to a temp file **once per batch**; each
  dispatch then ships only a token for that snapshot, the shard's
  touched graph nodes and the fid list — instead of pickling the whole
  shard Farmer per dispatch. A worker loads the snapshot on first
  sight of the token (cached in the worker process), builds a scratch
  Farmer around it, adopts the shipped nodes and ranks the fids; it
  ships back exactly the lists it ranked and the parent installs them
  via :meth:`~repro.core.cominer.CoMiner.adopt_ranked`. A scratch
  Farmer ranks every dispatched fid from just nodes + vectors — a
  Correlator List is a pure function of those — so the result is
  bit-identical to an in-parent flush. The per-dispatch payload and
  per-batch snapshot sizes are reported (``dispatch_bytes`` /
  ``shared_bytes``), which is what BENCH_service.json tracks.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.core.farmer import Farmer
from repro.errors import ConfigError
from repro.graph.correlator_list import CorrelatorList
from repro.service.sharded import ShardedFarmer
from repro.traces.record import TraceRecord

__all__ = ["ParallelShardRunner", "ParallelMineReport", "BACKENDS"]

BACKENDS = ("thread", "process")

# Worker-process cache of the current batch's shared snapshot: the
# (config, vector store) pair every shard dispatch of one batch reads.
# Keyed by the parent-chosen token so a stale snapshot is never reused.
_WORKER_SHARED: tuple[str, object, object] | None = None


def _flush_shard_worker(
    shard: Farmer, fids: list[int]
) -> dict[int, CorrelatorList]:
    """Process-backend worker: flush a pickled shard snapshot and return
    the lists it re-ranked (module-level so it pickles under spawn)."""
    return shard.miner.flush_nodes_report(fids)


def _flush_payload_worker(payload: bytes) -> dict[int, CorrelatorList]:
    """Process-backend worker, shared-snapshot protocol: the payload
    carries ``(token, snapshot_path, nodes, fids)``. The (config,
    vector store) snapshot at ``snapshot_path`` is loaded once per
    worker process per token; each dispatch wraps it in a *fresh*
    scratch Farmer (a shell around the shared store — no data of its
    own, so construction is cheap), adopts its shard's touched nodes
    and ranks its fids. The Farmer must not be shared across dispatches:
    two shards' graphs can both hold a node for the same fid (an owner
    node and a boundary halo) whose per-node change ticks coincide,
    which would make the second dispatch's rank of that fid look
    already-done."""
    global _WORKER_SHARED
    token, path, nodes, fids = pickle.loads(payload)
    if _WORKER_SHARED is None or _WORKER_SHARED[0] != token:
        with open(path, "rb") as fh:
            config, store = pickle.load(fh)
        _WORKER_SHARED = (token, config, store)
    scratch = Farmer(_WORKER_SHARED[1], vector_store=_WORKER_SHARED[2])
    graph = scratch.constructor.graph
    for fid, node in nodes.items():
        graph.adopt_node(fid, node)
    return scratch.miner.flush_nodes_report(fids)


@dataclass(frozen=True, slots=True)
class ParallelMineReport:
    """Wall-clock measurement of one parallel ``mine`` call."""

    backend: str
    n_workers: int
    n_records: int  # service-level accepted records (echoes not counted)
    n_boundary_echoes: int
    partition_s: float
    ingest_s: float
    flush_s: float
    # process backend only: bytes pickled per dispatch (token + touched
    # nodes + fids, summed over shards) and the once-per-batch shared
    # (config, vector store) snapshot size. Zero on the thread backend.
    dispatch_bytes: int = 0
    shared_bytes: int = 0

    @property
    def elapsed_s(self) -> float:
        """Total wall time of the call (all phases)."""
        return self.partition_s + self.ingest_s + self.flush_s

    @property
    def throughput(self) -> float:
        """Accepted records per wall-clock second."""
        elapsed = self.elapsed_s
        return self.n_records / elapsed if elapsed > 0 else 0.0


class ParallelShardRunner:
    """Drives a :class:`ShardedFarmer`'s shards on a real executor.

    The runner owns no mining state — it orchestrates the service it
    wraps, so queries/stats keep going through the service object and a
    runner can be created per batch or reused across batches (the
    boundary-detection seed carries over exactly as with sequential
    ``mine``).
    """

    def __init__(
        self,
        service: ShardedFarmer,
        n_workers: int | None = None,
        backend: str = "thread",
    ) -> None:
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown runner backend {backend!r}; use one of {BACKENDS}"
            )
        if not service.config.lazy_reevaluation:
            raise ConfigError(
                "ParallelShardRunner requires lazy_reevaluation: the eager "
                "schedule interleaves shared-vector writes with per-request "
                "ranking, which has no order-independent parallel execution"
            )
        if n_workers is None:
            n_workers = min(service.config.n_shards, os.cpu_count() or 1)
        if n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        self.service = service
        self.n_workers = n_workers
        self.backend = backend
        # the executor is created lazily and reused across batches, so a
        # chunked stream pays worker spin-up once, not per mine() call
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None
        self._shared_token = 0  # per-batch snapshot-identity counter

    def _executor(self):
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._pool

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelShardRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def mine(self, records: Sequence[TraceRecord]) -> ParallelMineReport:
        """Batch-mine ``records`` with the shards running in parallel.

        Same contract as ``ShardedFarmer.mine`` (ingest barrier, then
        flush; lists rank against end-of-batch state); returns the
        phase-timed wall-clock report.
        """
        service = self.service
        t0 = time.perf_counter()
        # intra-package use of the service's substream rule and stream
        # accounting, exactly like the replay harness (_partition also
        # delivers any echoes still queued from a preceding stream and
        # places this batch's echoes per the configured drain schedule)
        subs, accepted, prev, last_fid = service._partition(
            records, service._prev_owner
        )
        t1 = time.perf_counter()
        work = [
            (shard, sub) for shard, sub in zip(service.shards, subs) if sub
        ]
        pool = self._executor()
        dispatch_bytes = shared_bytes = 0
        if self.backend == "thread":
            touched = list(
                pool.map(lambda item: item[0].ingest_mixed(item[1]), work)
            )
            t2 = time.perf_counter()
            # barrier above: every shard has ingested; flushes only
            # read the shared stores now
            list(
                pool.map(
                    lambda item: item[0].miner.flush_nodes(sorted(item[1])),
                    zip((shard for shard, _ in work), touched),
                )
            )
            t3 = time.perf_counter()
        else:
            # process backend: ingest writes shared state, so it stays in
            # the parent; the Function-1-heavy flush is what fans out
            touched = [shard.ingest_mixed(sub) for shard, sub in work]
            t2 = time.perf_counter()
            fid_lists = [sorted(t) for t in touched]
            dispatch_bytes, shared_bytes, t3 = self._flush_processes(
                work, fid_lists
            )
        n_placed = sum(len(s) for s in subs)
        echoes = n_placed - accepted
        service._absorb_stream_state(accepted, n_placed, prev, last_fid)
        return ParallelMineReport(
            backend=self.backend,
            n_workers=self.n_workers,
            n_records=accepted,
            n_boundary_echoes=echoes,
            partition_s=t1 - t0,
            ingest_s=t2 - t1,
            flush_s=t3 - t2,
            dispatch_bytes=dispatch_bytes,
            shared_bytes=shared_bytes,
        )

    def _flush_processes(self, work, fid_lists):
        """Fan the flush phase out over the process pool with the
        shared-snapshot protocol: one (config, vector store) temp-file
        snapshot per batch, one slim pickled payload per shard dispatch.
        Returns (dispatch bytes, snapshot bytes, end timestamp)."""
        service = self.service
        self._shared_token += 1
        token = f"{os.getpid()}-{id(self)}-{self._shared_token}"
        fd, path = tempfile.mkstemp(prefix="repro-shared-", suffix=".pkl")
        dispatch_bytes = 0
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(
                    (service.config, service.vector_store),
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            shared_bytes = os.path.getsize(path)
            pool = self._executor()
            futures = []
            for (shard, _), fids in zip(work, fid_lists):
                node_map = shard.constructor.graph.node_map()
                nodes = {
                    fid: node_map[fid] for fid in fids if fid in node_map
                }
                payload = pickle.dumps(
                    (token, path, nodes, fids),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                dispatch_bytes += len(payload)
                futures.append(pool.submit(_flush_payload_worker, payload))
            for (shard, _), fids, future in zip(work, fid_lists, futures):
                shard.miner.adopt_ranked(future.result(), fids)
        finally:
            os.unlink(path)
        return dispatch_bytes, shared_bytes, time.perf_counter()
