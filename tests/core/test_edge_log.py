"""The lazy schedule's edge log: deferred edge refreshes are exact.

Under ``lazy_reevaluation`` a request's reinforced predecessor edges are
not refreshed on the request: ``CoMiner.defer_edge`` drops the refresh
for a dirty list and logs its inputs for a clean one, and the log is
replayed on the next read of a list that was not rebuilt first. The
reference is the same miner with ``defer_edge`` bound to the immediate
``reevaluate_edge``; every query answer must match it bit for bit, on
any schedule of observes, batch mines, queries of arbitrary files, raw
list reads, snapshots and flushes — across re-rank kernels, Function-2
weights and a 2-shard service with rebalance and standby sync.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cominer import CoMiner
from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.durability.snapshot import latest_snapshot, load_snapshot, write_snapshot
from repro.graph.correlator_list import CorrelatorList
from repro.service.sharded import ShardedFarmer
from tests.conftest import generate_trace, make_record, sequence_records

KERNELS = ["bulk", "entrywise"]

FIDS = range(5)
_PATHS = (None, "/a/b/c", "/a/b/d", "/a/a/b", "/x/a/b/c")
_records = st.tuples(
    st.sampled_from(FIDS),
    st.integers(0, 2),  # uid
    st.sampled_from(_PATHS),
)
_queries = st.sampled_from(FIDS)
_common_steps = [
    st.tuples(st.just("observe"), _records),
    st.tuples(st.just("mine"), st.lists(_records, min_size=1, max_size=4)),
    st.tuples(st.just("ask"), _queries),
    st.tuples(st.just("list_of"), _queries),
    st.tuples(st.just("snapshot"), st.none()),
    st.tuples(st.just("flush_all"), st.none()),
]
_farmer_steps = st.lists(st.one_of(*_common_steps), min_size=10, max_size=60)
_service_steps = st.lists(
    st.one_of(
        *_common_steps,
        st.tuples(
            st.just("rebalance"),
            st.sampled_from(["hash", "range", "consistent_hash"]),
        ),
        st.tuples(st.just("sync"), st.none()),
    ),
    min_size=10,
    max_size=60,
)


def _eager_edges(farmers) -> None:
    """Bind each miner's ``defer_edge`` to the immediate refresh."""
    for farmer in farmers:
        farmer.miner.defer_edge = farmer.miner.reevaluate_edge


def _miners_of(service: ShardedFarmer):
    return [shard.miner for shard in service.shards]


def _run(steps, under_test, ref, miners_of) -> None:
    """Drive both sides through ``steps`` and compare every answer."""
    ts = 0
    for kind, arg in steps:
        if kind in ("observe", "mine"):
            records = []
            for fid, uid, path in [arg] if kind == "observe" else arg:
                ts += 1
                records.append(make_record(fid, ts=ts, uid=uid, path=path))
            for side in (under_test, ref):
                if kind == "observe":
                    side.observe(records[0])
                else:
                    side.mine(records)
            fid = records[-1].fid
            assert under_test.predict(fid) == ref.predict(fid)
        elif kind == "ask":
            assert under_test.correlators(arg) == ref.correlators(arg)
            assert under_test.predict(arg) == ref.predict(arg)
        elif kind == "list_of":
            # a raw view is exact for clean lists; a dirty one no longer
            # carries the refreshes dropped while it was dirty
            for got, want in zip(miners_of(under_test), miners_of(ref)):
                if not got.is_dirty(arg) and not want.is_dirty(arg):
                    got_list, want_list = got.list_of(arg), want.list_of(arg)
                    assert (got_list is None) == (want_list is None)
                    if got_list is not None:
                        assert got_list.entries() == want_list.entries()
        elif kind == "snapshot":
            assert under_test.snapshot() == ref.snapshot()
        elif kind == "flush_all":
            for side in (under_test, ref):
                for miner in miners_of(side):
                    miner.flush_all()
        elif kind == "rebalance":
            for side in (under_test, ref):
                side.rebalance(policy=arg)  # same shards, new owners
        else:  # sync
            for side in (under_test, ref):
                side.sync_standbys()
    for fid in FIDS:
        assert under_test.correlators(fid) == ref.correlators(fid)
    assert under_test.snapshot() == ref.snapshot()


# a narrow window lets a clean list's logged destinations change their
# vectors before the read; a small successor capacity evicts logged
# edges (their frequency drops to 0) before the read
_shape = st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([2, 32]))


def _config(kernel, weight_p, shape, **service) -> FarmerConfig:
    window, successor_capacity = shape
    return FarmerConfig(
        max_strength=0.0,
        correlator_capacity=3,
        weight_p=weight_p,
        rerank_kernel=kernel,
        window=window,
        successor_capacity=successor_capacity,
        **service,
    )


class TestReplayExactness:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        steps=_farmer_steps,
        kernel=st.sampled_from(KERNELS),
        weight_p=st.sampled_from([0.0, 0.7, 1.0]),
        shape=_shape,
    )
    def test_farmer_matches_immediate_refresh(
        self, steps, kernel, weight_p, shape
    ):
        config = _config(kernel, weight_p, shape)
        under_test, ref = Farmer(config), Farmer(config)
        _eager_edges([ref])
        _run(steps, under_test, ref, lambda f: [f.miner])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        steps=_service_steps,
        kernel=st.sampled_from(KERNELS),
        weight_p=st.sampled_from([0.0, 0.7, 1.0]),
        shape=_shape,
    )
    def test_sharded_matches_immediate_refresh(
        self, steps, kernel, weight_p, shape
    ):
        config = _config(
            kernel, weight_p, shape,
            n_shards=2, replication=True, standby_sync_interval=5,
        )
        under_test, ref = ShardedFarmer(config), ShardedFarmer(config)
        _eager_edges(ref.shards)
        _run(steps, under_test, ref, _miners_of)


class TestObservePath:
    def test_observe_consults_no_cache(self):
        """Under lazy re-evaluation a request runs no Function 1: the
        evaluation count stays put until something is queried."""
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        records = sequence_records([1, 2, 3, 1, 4, 2] * 10, path="/p/x")
        farmer.observe(records[0])
        farmer.predict(records[0].fid)
        before = farmer.f1_evaluations()
        for record in records[1:]:
            farmer.observe(record)
        assert farmer.f1_evaluations() == before
        farmer.snapshot()
        assert farmer.f1_evaluations() > before

    def test_dirty_predecessor_logs_nothing(self):
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        for record in sequence_records([1, 2, 3], path="/p/x"):
            farmer.observe(record)
        assert farmer.miner._edge_log == {}
        farmer.predict(1)  # 1 is clean now; its next reinforcement logs
        farmer.observe(make_record(4, ts=10**6, path="/p/x"))
        assert list(farmer.miner._edge_log) == [1]
        farmer.predict(1)
        assert farmer.miner._edge_log == {}


def _logged_pair(*fids, **knobs):
    """A farmer and its immediate-refresh reference after requesting 1
    (then predicting it, so its list is clean) and then ``fids``: the
    farmer holds 1's reinforced edges in its log, the reference has
    applied them."""
    config = FarmerConfig(max_strength=0.0, **knobs)
    farmer, ref = Farmer(config), Farmer(config)
    _eager_edges([ref])
    for side in (farmer, ref):
        records = sequence_records([1, *fids], path="/p/x")
        side.observe(records[0])
        side.predict(1)
        for record in records[1:]:
            side.observe(record)
    assert 1 in farmer.miner._edge_log
    return farmer, ref


class TestCapturedInputs:
    def test_replay_uses_captured_frequency(self):
        """Edge 1→2 is evicted from 1's successor table (capacity 1)
        after its refresh was logged; the replay still uses the
        frequency it had then, as the immediate refresh did."""
        farmer, ref = _logged_pair(2, 3, successor_capacity=1)
        assert farmer.access_frequency(1, 2) == 0.0
        assert 2 in [e.fid for e in ref.correlators(1)]
        assert farmer.correlators(1) == ref.correlators(1)


class TestSettlePoints:
    def test_flush_all_leaves_nothing_pending(self):
        farmer, ref = _logged_pair(2, 3)
        farmer.miner.flush_all()
        assert farmer.miner._edge_log == {}
        assert farmer.miner._lists[1].entries() == ref.miner.list_of(1).entries()

    def test_extract_state_ships_replayed_list(self):
        farmer, ref = _logged_pair(2, 3)
        shipped = farmer.miner.extract_state(1)
        assert shipped.entries() == ref.miner.extract_state(1).entries()
        assert farmer.miner._edge_log == {}

    def test_adopting_a_list_drops_the_log(self):
        farmer, ref = _logged_pair(2, 3)
        for side in (farmer, ref):
            side.miner.adopt_migrated(1, CorrelatorList(), tick=0)
        assert farmer.correlators(1) == ref.correlators(1) == []

    def test_adopting_ranked_lists_drops_the_log(self):
        farmer, ref = _logged_pair(2, 3)
        for side in (farmer, ref):
            side.miner.adopt_ranked({1: CorrelatorList()}, [1])
        assert farmer.correlators(1) == ref.correlators(1) == []

    def test_pure_getters_do_not_replay(self):
        farmer, _ = _logged_pair(2, 3)
        evaluations = farmer.f1_evaluations()
        farmer.memory_bytes()
        farmer.miner.n_lists()
        farmer.rerank_stats()
        assert 1 in farmer.miner._edge_log
        assert farmer.f1_evaluations() == evaluations


class TestPersistence:
    def test_snapshot_restores_pending_logs(self, tmp_path):
        """A durable snapshot carries pending edge logs; the restored
        service answers exactly as the one it was taken from."""
        service = ShardedFarmer(FarmerConfig(n_shards=2, max_strength=0.0))
        trace = generate_trace("hp", 400, seed=3)
        for record in trace:
            service.observe(record)
            service.predict(record.fid)
        assert any(shard.miner._edge_log for shard in service.shards)
        write_snapshot(tmp_path, service, 1)
        restored = load_snapshot(latest_snapshot(tmp_path))
        for fid in sorted({record.fid for record in trace}):
            assert restored.correlators(fid) == service.correlators(fid)

    def test_empty_log_is_not_pickled(self):
        miner = Farmer().miner
        assert "_edge_log" not in miner.__getstate__()
        restored = CoMiner.__new__(CoMiner)
        restored.__setstate__(miner.__getstate__())
        assert restored._edge_log == {}
