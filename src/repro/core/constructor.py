"""Stage 2 — Constructing: maintain the correlation graph and the
per-file semantic vectors.

The constructor feeds accesses into the sliding-window
:class:`~repro.graph.correlation_graph.CorrelationGraph` and delegates
semantic-vector maintenance to the policy-driven
:class:`~repro.core.vector_store.VectorStore`.
"""

from __future__ import annotations

from repro.core.config import FarmerConfig
from repro.core.extractor import Extractor
from repro.core.vector_store import VectorStore
from repro.graph.correlation_graph import CorrelationGraph
from repro.graph.lda import weight_schedule
from repro.traces.record import TraceRecord
from repro.vsm.vector import SemanticVector

__all__ = ["GraphConstructor"]


class GraphConstructor:
    """Owns the graph and the semantic-vector store."""

    def __init__(
        self,
        config: FarmerConfig,
        extractor: Extractor,
        vectors: VectorStore | None = None,
    ) -> None:
        self.config = config
        self.extractor = extractor
        self.graph = CorrelationGraph(
            window=config.window,
            decrement=config.lda_decrement,
            successor_capacity=config.successor_capacity,
            weight_fn=weight_schedule(config.weight_schedule),
        )
        # ``vectors`` may be injected so miner shards can share one
        # namespace-global store
        self.vectors = vectors if vectors is not None else VectorStore(config, extractor)
        self.owns_vectors = vectors is None

    def observe(self, record: TraceRecord) -> tuple[int, list[int]]:
        """Feed one request.

        Returns ``(fid, touched_predecessors)`` — the predecessors whose
        edge toward ``fid`` was just reinforced; the miner re-evaluates
        exactly those plus the requested file itself.
        """
        fid = record.fid
        self.vectors.update(record)
        touched = self.graph.observe(fid)
        return fid, touched

    def observe_graph(self, record: TraceRecord) -> tuple[int, list[int]]:
        """Feed one request into the graph only, skipping the vector
        update — the boundary-echo path, where the record's owner shard
        has already folded it into the shared vector store."""
        fid = record.fid
        touched = self.graph.observe(fid)
        return fid, touched

    def vector_of(self, fid: int) -> SemanticVector | None:
        """Semantic vector currently representing ``fid`` (None if unseen)."""
        return self.vectors.get(fid)

    def n_vectors(self) -> int:
        """Number of files with a stored vector."""
        return len(self.vectors)

    def approx_bytes(self) -> int:
        """Graph + vector-store footprint (the store only when owned —
        a shared store is accounted once by its owner)."""
        bytes_ = self.graph.approx_bytes()
        if self.owns_vectors:
            bytes_ += self.vectors.approx_bytes()
        return bytes_
