"""The online ingestion service: FARMER as a continuously-running miner.

The batch layer answers "what would the correlations be for this
trace?"; this package answers "serve predictions *while* the trace is
still arriving". Four pieces, one per module:

* :mod:`repro.online.agent` — trace-tailing sources. An agent replays a
  recorded trace (or tails a live JSONL file) at a configurable arrival
  rate — constant, bursty, or diurnal — and offers records through the
  admission protocol.
* :mod:`repro.online.pipeline` — the bounded ingest queue with
  watermark admission control (accept / accept-without-echo / defer /
  shed, in that degradation order) and the consumer that drains batches
  into :meth:`ShardedFarmer.ingest_stream`. After a full
  :meth:`OnlineService.drain` barrier the mined state is bit-identical
  to a batch ``mine()`` of the accepted stream.
* :mod:`repro.online.api` — the query/admin plane: a stdlib-HTTP JSON
  API serving ``predict``/``stats``/``snapshot`` and the admin verbs
  (``fail_shard``, ``promote_standby``, ``rebalance``, ``drain``)
  concurrently with mining.
* :mod:`repro.online.telemetry` — ring-buffer time series (queue depth,
  per-shard load) and fixed-bucket latency histograms (per-endpoint
  p50/p95/p99), all bounded-memory and numpy-free.

``repro serve`` in the CLI wires the four together into a process.
With ``--data-dir`` the service additionally journals accepted records
and checkpoints snapshots through :mod:`repro.durability`, making a
``--recover`` cold restart bit-identical to never having crashed at the
last durable barrier.
"""

from __future__ import annotations

from repro.online.agent import (
    AgentReport,
    ArrivalPattern,
    BurstyRate,
    ConstantRate,
    DiurnalRate,
    FileTailAgent,
    ReplayAgent,
)
from repro.online.api import AdminApiServer
from repro.online.pipeline import (
    Admission,
    AdmissionPolicy,
    DrainReport,
    IngestPipeline,
    OnlineService,
    OnlineStats,
    PipelineCounters,
    RecordSink,
)
from repro.online.telemetry import (
    LatencyHistogram,
    LatencySummary,
    RingSeries,
    Telemetry,
)

__all__ = [
    "AdminApiServer",
    "Admission",
    "AdmissionPolicy",
    "AgentReport",
    "ArrivalPattern",
    "BurstyRate",
    "ConstantRate",
    "DiurnalRate",
    "DrainReport",
    "FileTailAgent",
    "IngestPipeline",
    "LatencyHistogram",
    "LatencySummary",
    "OnlineService",
    "OnlineStats",
    "PipelineCounters",
    "RecordSink",
    "ReplayAgent",
    "RingSeries",
    "Telemetry",
]
