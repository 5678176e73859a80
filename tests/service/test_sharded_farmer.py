"""ShardedFarmer semantics: equivalence scope, routing, cross-shard edges.

The two load-bearing properties (ISSUE 2 satellites):

* ``n_shards=1`` is bit-for-bit a plain Farmer over a 20k-record trace
  (every query point, plus the final snapshot);
* a partition-closed trace (one where no request pair straddles a shard
  boundary) mines identically to independent per-shard Farmers for any
  shard count — and with ``cross_shard_edges=False`` that per-shard
  equivalence holds for *arbitrary* traces, because each shard then sees
  exactly its routed substream.
"""

from dataclasses import replace

import pytest

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.errors import ConfigError
from repro.service.router import HashShardRouter
from repro.service.sharded import ShardedFarmer
from repro.traces.record import TraceRecord
from repro.traces.synthetic import generate_trace
from tests.conftest import sequence_records


def without_rerank(stats):
    """``stats`` with the per-shard re-rank op counters left out."""
    return replace(
        stats, shards=tuple(replace(s, rerank=None) for s in stats.shards)
    )


def remap_fids(records, scale: int, residue: int) -> list[TraceRecord]:
    """Remap fids to ``fid * scale + residue`` (all land on one hash shard)."""
    return [
        TraceRecord(
            ts=r.ts,
            fid=r.fid * scale + residue,
            uid=r.uid,
            pid=r.pid,
            host=r.host,
            path=r.path,
            op=r.op,
            size=r.size,
            dev=r.dev,
        )
        for r in records
    ]


class TestSingleShardEquivalence:
    def test_20k_trace_bit_for_bit(self, hp_trace_20k):
        """Acceptance property: ``ShardedFarmer(n_shards=1)`` matches a
        plain Farmer on every query over a 20k-record synthetic trace."""
        trace = hp_trace_20k
        plain = Farmer(FarmerConfig(max_strength=0.3))
        service = ShardedFarmer(FarmerConfig(max_strength=0.3, n_shards=1))
        for i, record in enumerate(trace):
            plain.observe(record)
            service.observe(record)
            # the FPA query pattern: ask about the file just requested
            assert service.correlators(record.fid) == plain.correlators(record.fid)
            assert service.predict(record.fid) == plain.predict(record.fid)
            if i % 4000 == 3999:
                assert service.snapshot() == plain.snapshot()
        assert service.snapshot() == plain.snapshot()
        assert service.n_observed == plain.stats().n_observed == len(trace)
        assert service.memory_bytes() == plain.memory_bytes()

    def test_mine_matches_plain_farmer(self):
        trace = generate_trace("hp", 3_000, seed=4)
        cfg = FarmerConfig(max_strength=0.3, correlator_capacity=64)
        plain = Farmer(cfg).mine(trace)
        service = ShardedFarmer(cfg.with_(n_shards=1)).mine(trace)
        for fid in plain.constructor.graph.nodes():
            assert service.correlators(fid) == plain.correlators(fid)


class TestPerShardEquivalence:
    @pytest.mark.parametrize("n_shards", [2, 3, 4])
    def test_strict_isolation_equals_per_shard_mining(self, n_shards):
        """Under strict partition isolation, the service *is* a set of
        independent per-shard Farmers fed their routed substreams — for
        any trace and any shard count."""
        trace = generate_trace("hp", 4_000, seed=21)
        cfg = FarmerConfig(
            max_strength=0.3, n_shards=n_shards, cross_shard_edges=False
        )
        service = ShardedFarmer(cfg)
        for record in trace:
            service.observe(record)
        solo_cfg = cfg.with_(n_shards=1)
        references = [Farmer(solo_cfg) for _ in range(n_shards)]
        for record in trace:
            references[record.fid % n_shards].observe(record)
        for record in trace:
            ref = references[record.fid % n_shards]
            assert service.correlators(record.fid) == ref.correlators(record.fid)
            assert service.predict(record.fid) == ref.predict(record.fid)

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_partition_closed_trace_any_shard_count(self, n_shards):
        """A partition-closed trace (every fid on one shard, so no
        cross-shard successor pairs exist) mines identically to
        per-shard mining even with cross-shard edges enabled, for any
        shard count — no echo ever fires."""
        residue = n_shards - 1
        trace = remap_fids(
            generate_trace("hp", 4_000, seed=8), n_shards, residue
        )
        cfg = FarmerConfig(max_strength=0.3, n_shards=n_shards)
        service = ShardedFarmer(cfg)
        reference = Farmer(cfg.with_(n_shards=1))
        for record in trace:
            service.observe(record)
            reference.observe(record)
            assert service.correlators(record.fid) == reference.correlators(
                record.fid
            )
        assert service.n_boundary_echoes == 0
        # the other shards never saw anything
        for index, shard in enumerate(service.shards):
            if index != residue:
                assert shard.stats().n_observed == 0


class TestCrossShardEdges:
    def test_boundary_correlation_captured(self):
        """An A→B pattern that straddles the shard boundary is mined by
        the predecessor's shard when echoes are on…"""
        cfg = FarmerConfig(max_strength=0.0, n_shards=2, weight_p=0.0)
        service = ShardedFarmer(cfg)
        for r in sequence_records([2, 3] * 10):  # owners alternate 0,1
            service.observe(r)
        assert service.n_boundary_echoes > 0
        assert service.correlation_degree(2, 3) > 0.0
        assert 3 in [e.fid for e in service.correlators(2)]

    def test_isolation_drops_boundary_correlation(self):
        """…and silently dropped under strict isolation."""
        cfg = FarmerConfig(
            max_strength=0.0, n_shards=2, weight_p=0.0, cross_shard_edges=False
        )
        service = ShardedFarmer(cfg)
        for r in sequence_records([2, 3] * 10):
            service.observe(r)
        assert service.n_boundary_echoes == 0
        assert service.correlation_degree(2, 3) == 0.0
        assert service.correlators(2) == []

    def test_echo_skips_vector_update(self):
        """The echo path must not fold a record into the shared vector
        store a second time: an alternating trace (every request a
        boundary request) folds each record once, and the vectors
        match a single Farmer's."""
        cfg = FarmerConfig(max_strength=0.0, n_shards=2)
        service = ShardedFarmer(cfg)
        plain = Farmer(FarmerConfig(max_strength=0.0))
        store = service.vector_store
        folded = []
        fold = store.update
        store.update = lambda record: (folded.append(record.fid), fold(record))
        records = sequence_records([2, 3, 2, 3, 2], path="/a/b")
        for r in records:
            service.observe(r)
            plain.observe(r)
        assert service.n_boundary_echoes == 4
        assert folded == [r.fid for r in records]
        for fid in (2, 3):
            assert store.get(fid) == plain.constructor.vector_of(fid)

    def test_echo_lands_before_observe_returns(self):
        """The echo is delivered inside ``observe(b)``: before any
        query, the predecessor's shard already holds the ``a → b`` edge
        and counts the echo, and ``stats()`` is a pure read (it mines
        nothing; only the re-rank counters advance, because each read
        ranks the lists the previous one put back to dirty)."""
        cfg = FarmerConfig(max_strength=0.0, n_shards=2, weight_p=0.0)
        service = ShardedFarmer(cfg)
        a, b = sequence_records([2, 3])  # owners 0 and 1
        service.observe(a)
        service.observe(b)
        pred_shard = service.shards[0]
        assert 3 in pred_shard.constructor.graph.successors(2)
        assert pred_shard.n_observed == 2  # a itself, plus b's echo
        assert service.shards[1].n_observed == 1
        assert service.n_boundary_echoes == 1
        first, second = service.stats(), service.stats()
        assert without_rerank(second) == without_rerank(first)

    def test_boundary_pair_has_positive_degree(self):
        cfg = FarmerConfig(max_strength=0.0, n_shards=2, weight_p=0.0)
        service = ShardedFarmer(cfg)
        for r in sequence_records([2, 3] * 5):
            service.observe(r)
        assert service.correlation_degree(2, 3) > 0.0


class TestRoutingAndQueries:
    def test_queries_route_to_owner(self):
        service = ShardedFarmer(FarmerConfig(n_shards=4, max_strength=0.0))
        trace = generate_trace("hp", 1_000, seed=3)
        for record in trace:
            service.observe(record)
        for record in trace[:50]:
            owner = service.shard_of(record.fid)
            assert owner == record.fid % 4
            assert (
                service.correlators(record.fid)
                == service.shards[owner].correlators(record.fid)
            )

    def test_router_shard_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ShardedFarmer(FarmerConfig(n_shards=4), router=HashShardRouter(2))

    def test_range_policy_runs(self):
        service = ShardedFarmer(FarmerConfig(n_shards=2, shard_policy="range"))
        for record in generate_trace("hp", 500, seed=5):
            service.observe(record)
        assert service.n_observed == 500

    def test_op_filter_respected(self):
        cfg = FarmerConfig(n_shards=2, op_filter=("open",))
        service = ShardedFarmer(cfg)
        for r in sequence_records([1, 2, 3], op="stat"):
            service.observe(r)
        assert service.n_observed == 0
        service.mine(sequence_records([1, 2, 1, 2], op="open"))
        assert service.n_observed == 4


class TestMineBatch:
    def test_mine_agrees_with_observe_loop(self):
        """Batch mine and an observe() loop agree on every owned list
        once queried (both rank against the same final state)."""
        trace = generate_trace("hp", 2_000, seed=17)
        cfg = FarmerConfig(
            max_strength=0.3, correlator_capacity=64, n_shards=4
        )
        batched = ShardedFarmer(cfg).mine(trace)
        looped = ShardedFarmer(cfg)
        for record in trace:
            looped.observe(record)
        for record in trace:
            assert batched.correlators(record.fid) == looped.correlators(record.fid)
        assert batched.n_observed == looped.n_observed == len(trace)
        assert batched.n_boundary_echoes == looped.n_boundary_echoes

    def test_chunked_mine_places_one_shot_echoes(self):
        """Mining a trace in uneven chunks places exactly the echoes
        of one whole-trace ``mine``: boundary state carries across the
        call seams."""
        trace = generate_trace("hp", 3_000, seed=9)
        cfg = FarmerConfig(max_strength=0.3, n_shards=4)
        chunked = ShardedFarmer(cfg)
        for start in range(0, len(trace), 700):  # uneven chunk boundary
            chunked.mine(trace[start : start + 700])
        whole = ShardedFarmer(cfg).mine(trace)
        assert chunked.n_observed == whole.n_observed == len(trace)
        assert chunked.n_boundary_echoes == whole.n_boundary_echoes

    def test_stats_reports_echo_counters(self):
        service = ShardedFarmer(FarmerConfig(n_shards=4))
        service.mine(generate_trace("hp", 1_000, seed=2))
        stats = service.stats()
        assert stats.n_boundary_echoes == service.n_boundary_echoes > 0
        assert service.echo_drop_counts == (0, 0, 0, 0)
        assert stats.n_echoes_dropped == 0

    def test_mine_returns_self(self):
        service = ShardedFarmer(FarmerConfig(n_shards=2))
        assert service.mine(generate_trace("hp", 200, seed=1)) is service

    def test_strict_isolation_mine_places_no_echoes(self):
        """Batch ``mine`` under strict isolation echoes nothing, and each
        shard's lists are those of a plain Farmer mining its routed
        substream."""
        trace = generate_trace("hp", 2_500, seed=1)
        cfg = FarmerConfig(
            max_strength=0.3, n_shards=4, cross_shard_edges=False
        )
        service = ShardedFarmer(cfg).mine(trace)
        assert service.n_boundary_echoes == 0
        assert service.n_observed == len(trace)
        references = [
            Farmer(cfg.with_(n_shards=1)).mine(
                [r for r in trace if r.fid % 4 == index]
            )
            for index in range(4)
        ]
        for record in trace:
            ref = references[record.fid % 4]
            assert service.correlators(record.fid) == ref.correlators(record.fid)

    def test_shards_round_trip_through_pickle(self):
        """Shards and their shared stores pickle (durable snapshots rely
        on it); a clone answers every query as its original does."""
        import pickle

        service = ShardedFarmer(FarmerConfig(n_shards=2))
        service.mine(generate_trace("hp", 400, seed=3))
        for shard in service.shards:
            clone = pickle.loads(pickle.dumps(shard))
            for fid in shard.constructor.graph.nodes():
                assert clone.correlators(fid) == shard.correlators(fid)
