"""``ShardedFarmer.rebalance``: migration semantics and equivalences.

Two load-bearing properties (ISSUE 4 acceptance):

* **query preservation** — for any window and any trace, a rebalance
  serves exactly the lists the old owners would have served (migration
  ships ranked state, it never re-mines);
* **from-scratch bit-identity at window=1** — with ``window=1`` the
  boundary-echo mechanism captures the cross-shard edge set exactly
  (every adjacent pair lands on the predecessor's owner shard before
  anything else can), so each owner node's successor multiset equals
  the global adjacent multiset *independent of topology*. A
  mined-then-rebalanced service is therefore bit-for-bit identical to a
  service freshly mined at the new topology, over a 20k-record trace,
  for policy changes (hash → consistent_hash) and shard-count changes
  (grow and shrink). Wider windows make echoed deep-window edges
  topology-dependent, which is why the scope is stated this way (see
  docs/equivalence.md).
"""

import pytest

from repro.core.config import FarmerConfig
from repro.errors import ConfigError
from repro.service.router import ConsistentHashRouter, HashShardRouter
from repro.service.sharded import ShardedFarmer
from repro.traces.synthetic import generate_trace
from tests.conftest import sequence_records


def owned_fids(service: ShardedFarmer) -> set[int]:
    """Every fid with graph state, deduplicated across shards."""
    out: set[int] = set()
    for shard in service.shards:
        out.update(shard.constructor.graph.nodes())
    return out


def query_map(service: ShardedFarmer, fids) -> dict:
    """correlators + predict for every fid (forces dirty re-ranks)."""
    return {
        fid: (service.correlators(fid), service.predict(fid))
        for fid in sorted(fids)
    }


class TestQueryPreservation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(policy="consistent_hash"),
            dict(n_shards=6),
            dict(n_shards=2),
            dict(n_shards=3, policy="consistent_hash"),
        ],
    )
    def test_queries_invariant_under_rebalance(self, kwargs):
        """Migration never changes what a query returns — any window,
        any topology change."""
        trace = generate_trace("hp", 5_000, seed=19)
        service = ShardedFarmer(FarmerConfig(max_strength=0.3, n_shards=4))
        service.mine(trace)
        fids = owned_fids(service)
        before = query_map(service, fids)
        report = service.rebalance(**kwargs)
        assert query_map(service, fids) == before
        assert report.n_shards_after == kwargs.get("n_shards", 4)
        assert 0 <= report.n_migrated <= report.n_owned

    def test_snapshot_preserved(self):
        trace = generate_trace("hp", 3_000, seed=5)
        service = ShardedFarmer(FarmerConfig(max_strength=0.3, n_shards=4))
        service.mine(trace)
        before = service.snapshot()
        service.rebalance(policy="consistent_hash")
        assert service.snapshot() == before


class TestFromScratchEquivalence:
    """window=1: rebalanced ≡ freshly mined at the new topology."""

    BASE = FarmerConfig(max_strength=0.3, window=1, n_shards=4)

    def check(self, trace, **rebalance_kwargs):
        migrated = ShardedFarmer(self.BASE)
        for record in trace:
            migrated.observe(record)
        report = migrated.rebalance(**rebalance_kwargs)
        scratch = ShardedFarmer(migrated.config)
        for record in trace:
            scratch.observe(record)
        fids = owned_fids(scratch) | owned_fids(migrated)
        assert query_map(migrated, fids) == query_map(scratch, fids)
        assert migrated.snapshot() == scratch.snapshot()
        return report

    def test_hash_to_consistent_hash_20k(self, hp_trace_20k):
        """Acceptance: policy migration over a 20k-record trace."""
        report = self.check(hp_trace_20k, policy="consistent_hash")
        assert report.n_migrated > 0
        assert report.policy == "consistent_hash"

    def test_shard_count_grow_20k(self, synthetic_trace):
        """Acceptance: shard-count change (4 → 6) over 20k records."""
        trace = synthetic_trace("hp", 20_000, seed=14)
        report = self.check(trace, n_shards=6)
        assert report.n_shards_after == 6

    def test_shard_count_shrink(self):
        trace = generate_trace("hp", 8_000, seed=15)
        report = self.check(trace, n_shards=2)
        assert report.n_shards_after == 2
        # everything shards 2..3 owned had to move
        assert report.n_migrated > 0

    def test_consistent_hash_growth_moves_minority(self):
        """Same property through the service: consistent_hash 4 → 5
        migrates a minority while modulo would reshuffle the bulk."""
        trace = generate_trace("hp", 8_000, seed=16)
        service = ShardedFarmer(
            self.BASE.with_(shard_policy="consistent_hash")
        )
        for record in trace:
            service.observe(record)
        report = service.rebalance(n_shards=5)
        assert 0 < report.moved_fraction < 0.5

    def test_mining_continues_after_rebalance(self):
        """Post-rebalance observations route with the new topology and
        keep capturing cross-shard edges."""
        trace = generate_trace("hp", 6_000, seed=17)
        service = ShardedFarmer(self.BASE)
        for record in trace[:3_000]:
            service.observe(record)
        service.rebalance(n_shards=6, policy="consistent_hash")
        echoes_before = service.n_boundary_echoes
        for record in trace[3_000:]:
            service.observe(record)
            service.predict(record.fid)
        assert service.n_observed == len(trace)
        assert service.n_boundary_echoes > echoes_before
        stats = service.stats()
        assert stats.n_shards == 6
        assert stats.n_rebalances == 1
        assert stats.n_migrated_fids > 0


class TestRebalanceEdgeCases:
    def test_empty_shard_after_zero_weight_rebalance(self):
        """Satellite edge case: a zero weight drains a shard entirely;
        the empty shard keeps serving (nothing routes to it)."""
        trace = generate_trace("hp", 3_000, seed=7)
        service = ShardedFarmer(
            FarmerConfig(
                max_strength=0.3, n_shards=3, shard_policy="consistent_hash"
            )
        )
        service.mine(trace)
        fids = owned_fids(service)
        before = query_map(service, fids)
        service.rebalance(weights=(1.0, 0.0, 1.0))
        assert query_map(service, fids) == before
        assert all(service.shard_of(fid) != 1 for fid in fids)
        # shard 1 still exists, owns nothing, and stats() handles it
        assert service.stats().n_shards == 3
        service.mine(trace[:500])  # and mining still works

    def test_weights_carry_forward(self):
        """A later rebalance that omits weights keeps the current ring's
        weights — a drained (zero-weight) shard stays drained."""
        service = ShardedFarmer(
            FarmerConfig(n_shards=3, shard_policy="consistent_hash")
        )
        service.mine(generate_trace("hp", 1_000, seed=6))
        service.rebalance(weights=(1.0, 1.0, 0.0))
        service.rebalance()  # no weights given: keep them
        assert service.router.weights == (1.0, 1.0, 0.0)
        fids = owned_fids(service)
        assert all(service.shard_of(fid) != 2 for fid in fids)

    def test_weighted_ring_count_change_needs_explicit_weights(self):
        """Changing the shard count while the ring has explicit weights
        must not silently reset to uniform."""
        service = ShardedFarmer(
            FarmerConfig(n_shards=3, shard_policy="consistent_hash")
        )
        service.rebalance(weights=(1.0, 1.0, 0.0))
        with pytest.raises(ConfigError):
            service.rebalance(n_shards=4)
        service.rebalance(n_shards=4, weights=(1.0, 1.0, 0.0, 1.0))
        assert service.config.n_shards == 4

    def test_weights_require_consistent_hash(self):
        service = ShardedFarmer(FarmerConfig(n_shards=2))
        with pytest.raises(ConfigError):
            service.rebalance(weights=(1.0, 2.0))

    def test_explicit_router_must_match_count(self):
        service = ShardedFarmer(FarmerConfig(n_shards=2))
        with pytest.raises(ConfigError):
            service.rebalance(n_shards=4, router=HashShardRouter(2))

    def test_explicit_router_accepted(self):
        service = ShardedFarmer(FarmerConfig(n_shards=2))
        service.mine(generate_trace("hp", 1_000, seed=3))
        router = ConsistentHashRouter(4, seed=42)
        report = service.rebalance(n_shards=4, router=router)
        assert service.router is router
        assert report.n_shards_after == 4
        assert service.config.n_shards == 4

    def test_noop_rebalance_moves_nothing(self):
        """Re-installing the same topology is a no-op migration."""
        service = ShardedFarmer(FarmerConfig(max_strength=0.3, n_shards=4))
        service.mine(generate_trace("hp", 2_000, seed=4))
        report = service.rebalance(n_shards=4)
        assert report.n_migrated == 0
        assert report.moved_fraction == 0.0


class TestBoundaryStateAfterRebalance:
    """Regression (ISSUE 5 satellite): ``rebalance`` must leave the
    service-level boundary-detection state (``_prev_fid`` /
    ``_prev_owner``) explicitly initialized, including for destination
    shards that did not exist before the rebalance — previously only
    covered implicitly by the 4 → 6 bit-identity property."""

    def test_new_shard_becomes_prev_owner_and_receives_echo(self):
        """When the last-observed fid's new owner is a shard created by
        the rebalance, the next boundary request must echo to that new
        shard — the boundary seed re-routes onto the grown topology."""
        cfg = FarmerConfig(max_strength=0.0, weight_p=0.0, n_shards=2)
        service = ShardedFarmer(cfg)
        for r in sequence_records([2, 9]):
            service.observe(r)
        assert service._prev_owner == 1  # 9 % 2
        service.rebalance(n_shards=6)
        # fid 9's owner under the new modulo topology is shard 3 — a
        # shard that did not exist before this rebalance
        assert service._prev_owner == 3
        echoes_before = service.n_boundary_echoes
        service.observe(sequence_records([4])[0])  # owner 4: boundary
        assert service.n_boundary_echoes == echoes_before + 1
        # delivery lands on the new shard (its window is empty post-
        # rebalance, so the echo creates the node without the 9 -> 4
        # edge — the documented approximate post-rebalance geometry)
        assert 4 in service.shards[3].constructor.graph.nodes()

    def test_rebalance_before_any_stream_keeps_boundary_unset(self):
        """A topology change on a virgin service resets the boundary
        seed to None — the first post-rebalance request must not be
        treated as a boundary request."""
        service = ShardedFarmer(FarmerConfig(n_shards=2))
        service.rebalance(n_shards=4)
        assert service._prev_owner is None
        assert service._prev_fid is None
        service.observe(sequence_records([5])[0])
        assert service.n_boundary_echoes == 0


class TestAutoRebalance:
    """``auto_rebalance``: observed load → consistent-hash weights."""

    @staticmethod
    def skewed_service(n_shards: int = 4) -> ShardedFarmer:
        """A service with deliberately unbalanced shard load: the hash
        router sends ``fid % n`` to shard ``fid % n``, so a fid stream
        biased toward residue 0 overloads shard 0."""
        service = ShardedFarmer(FarmerConfig(max_strength=0.0, n_shards=n_shards))
        hot = [fid * n_shards for fid in range(1, 40)]  # residue 0
        cold = [fid * n_shards + 3 for fid in range(1, 6)]  # residue 3
        for r in sequence_records(hot * 6 + cold):
            service.observe(r)
            service.predict(r.fid)
        return service

    def test_weights_monotone_decreasing_in_load(self):
        service = self.skewed_service()
        report = service.auto_rebalance()
        loads, weights = report.loads, report.weights
        assert loads[0] == max(loads)  # the skew landed where intended
        for i in range(4):
            for j in range(4):
                if loads[i] < loads[j]:
                    assert weights[i] >= weights[j], (i, j)
        # strictly fewer ring points for the hot shard than the coldest
        assert weights[0] == min(weights)
        assert service.router.weights == report.weights
        assert service.config.shard_policy == "consistent_hash"

    def test_weights_clamped_to_band(self):
        report = self.skewed_service().auto_rebalance(
            weight_floor=0.5, weight_ceiling=1.5
        )
        assert all(0.5 <= w <= 1.5 for w in report.weights)

    def test_queries_invariant_under_auto_rebalance(self):
        """The PR 4 invariance harness, re-aimed: auto_rebalance is a
        rebalance, so every pre-decision query result is preserved."""
        trace = generate_trace("hp", 5_000, seed=19)
        service = ShardedFarmer(FarmerConfig(max_strength=0.3, n_shards=4))
        service.mine(trace)
        fids = owned_fids(service)
        before = query_map(service, fids)
        report = service.auto_rebalance()
        assert query_map(service, fids) == before
        assert report.rebalance.n_shards_after == 4
        assert service.stats().n_rebalances == 1

    def test_unloaded_service_stays_uniform(self):
        service = ShardedFarmer(FarmerConfig(n_shards=3))
        report = service.auto_rebalance()
        assert report.weights == (1.0, 1.0, 1.0)
        assert report.rebalance.n_migrated == 0  # nothing owned yet

    def test_repeated_auto_rebalance_converges_not_oscillates(self):
        """A second decision on unchanged cumulative load must not move
        a large namespace share back: weights are recomputed from the
        same totals, so the ring barely changes."""
        service = self.skewed_service()
        first = service.auto_rebalance()
        second = service.auto_rebalance()
        # the first decision's own migration work (ranking shipped
        # lists) nudges entries_scanned, so allow a small wobble — the
        # point is no oscillation, not bit-equal weights
        assert second.weights == pytest.approx(first.weights, rel=0.05)
        assert second.rebalance.moved_fraction <= 0.05

    def test_invalid_band_rejected(self):
        service = ShardedFarmer(FarmerConfig(n_shards=2))
        with pytest.raises(ConfigError):
            service.auto_rebalance(weight_floor=0.0)
        with pytest.raises(ConfigError):
            service.auto_rebalance(weight_floor=2.0, weight_ceiling=1.0)


class TestLoadWindowLifecycle:
    """The load-attribution window behind ``auto_rebalance``: every
    decision reads only the load observed since the *previous* decision
    (ISSUE 7 satellite). Lifetime counters would keep punishing a shard
    for skew it already shed, pinning it at the weight floor forever."""

    def test_decision_resets_the_window(self):
        service = TestAutoRebalance.skewed_service()
        assert max(service.shard_loads(since_decision=True)) > 0
        service.auto_rebalance()
        # the decision consumed the window: reads restart from zero
        assert service.shard_loads(since_decision=True) == (0.0,) * 4
        # lifetime totals are untouched by the windowing
        assert max(service.shard_loads()) > 0

    def test_immediate_second_decision_keeps_weights(self):
        """A zero-signal window installs no new opinion: the second
        decision keeps the first one's ring weights verbatim and moves
        nothing, instead of silently resetting to uniform."""
        service = TestAutoRebalance.skewed_service()
        first = service.auto_rebalance()
        second = service.auto_rebalance()
        assert second.loads == (0.0,) * 4
        assert second.weights == first.weights
        assert second.rebalance.n_migrated == 0

    def test_manual_rebalance_also_resets_the_window(self):
        """Any topology change invalidates prior load attribution, so a
        manual ``rebalance`` resets the window too: an auto decision
        right after sees no signal and keeps the (uniform) weights."""
        service = TestAutoRebalance.skewed_service()
        service.rebalance(policy="consistent_hash")
        report = service.auto_rebalance()
        assert report.loads == (0.0,) * 4
        assert report.weights == (1.0,) * 4

    def test_next_window_reflects_only_fresh_load(self):
        """Skew toward shard 0, decide, then skew the *new* topology's
        stream toward a different shard: the second decision judges by
        the fresh window only — the old hot shard is no longer the one
        whose weight is cut."""
        service = TestAutoRebalance.skewed_service()
        service.auto_rebalance()
        # find fids the new (consistent-hash) router sends to shard 2
        # and hammer them: shard 2 owns the fresh window
        route = service.router.route
        hot = [fid for fid in range(1, 400) if route(fid) == 2][:30]
        assert hot, "need fids owned by shard 2 under the new ring"
        for r in sequence_records(hot * 6):
            service.observe(r)
            service.predict(r.fid)
        report = service.auto_rebalance()
        assert report.loads[2] == max(report.loads)
        assert report.weights[2] == min(report.weights)

    def test_promotion_resets_the_promoted_shards_mark(self):
        """A promoted standby's counters restart below the failed
        primary's mark; the re-mark at promotion keeps its next window
        near zero instead of a clamp artifact swallowing real load."""
        service = ShardedFarmer(
            FarmerConfig(
                max_strength=0.0,
                n_shards=4,
                replication=True,
                standby_sync_interval=50,
            )
        )
        hot = [fid * 4 for fid in range(1, 40)]  # residue 0: shard 0
        for r in sequence_records(hot * 6):
            service.observe(r)
            service.predict(r.fid)
        before = service.shard_loads(since_decision=True)[0]
        assert before > 0
        service.fail_shard(0)
        service.promote_standby(0)
        after = service.shard_loads(since_decision=True)[0]
        # the promoted shard's window restarts at the standby's counters
        # (re-marked at promotion), not at the dead primary's lifetime
        # skew — only the promotion's own reseed work remains visible
        assert after < before
        # and the clamp never reports a negative window
        assert all(w >= 0.0 for w in service.shard_loads(since_decision=True))
