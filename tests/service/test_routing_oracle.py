"""ShardedFarmer's routing against the one-record-at-a-time oracle.

``tests.oracle.route_substreams`` applies the routing rules record by
record: owner, boundary echo, shed or dropped echo, a failed owner, the
standby cadence. Whatever entry point a segment of the stream goes
through (``observe``, ``mine`` or ``ingest_stream``), each shard's graph
must equal that of a plain Farmer fed the oracle's substream with
``ingest_mixed``, and every routing counter must match. The graph does
not depend on when lists are ranked, so this pins the routing exactly.

Records are hand-built, so the test is numpy-free and the no-numpy CI
leg runs it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.service.router import make_router
from repro.service.sharded import ShardedFarmer
from tests.conftest import make_record
from tests.oracle import route_substreams

# spread over the range router's 1024-fid blocks as well as the hashes
FIDS = (0, 1, 2, 3, 5, 8, 1024, 1025, 2049, 3072, 4097, 7000)
OPS = ("open", "read", "stat")
ENTRIES = ("observe", "mine", "ingest_stream")


@st.composite
def scenarios(draw):
    config = FarmerConfig(
        max_strength=0.3,
        n_shards=draw(st.integers(1, 4)),
        shard_policy=draw(st.sampled_from(("hash", "range", "consistent_hash"))),
        cross_shard_edges=draw(st.booleans()),
        op_filter=draw(st.sampled_from((None, ("open",), ("open", "read")))),
        window=draw(st.integers(1, 4)),
        replication=draw(st.booleans()),
        standby_sync_interval=draw(st.integers(1, 12)),
    )
    picks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(FIDS), st.sampled_from(OPS), st.booleans()
            ),
            min_size=10,
            max_size=60,
        )
    )
    items = [
        (
            make_record(
                fid, ts=i * 1000, uid=fid % 3, path=f"/d{fid % 4}/{fid}", op=op
            ),
            allow,
        )
        for i, (fid, op, allow) in enumerate(picks)
    ]
    cuts = draw(st.lists(st.integers(0, len(items)), max_size=5))
    fail_at = victim = None
    if config.replication and draw(st.booleans()):
        # a failure lands between two ingest_stream segments; observe
        # and mine would raise on the failed partition, so every later
        # segment streams too
        fail_at = len(items) * draw(st.integers(0, 4)) // 4
        victim = draw(st.integers(0, config.n_shards - 1))
        cuts.append(fail_at)
    bounds = [0, *sorted(set(cuts)), len(items)]
    segments = []
    for lo, hi in zip(bounds, bounds[1:]):
        entry = draw(st.sampled_from(ENTRIES))
        if fail_at is not None and hi >= fail_at:
            entry = "ingest_stream"
            if lo >= fail_at and victim is not None:
                segments.append(("fail", victim))
                victim = None
        segments.append((entry, items[lo:hi]))
    return config, segments


def graph_state(farmer: Farmer) -> tuple:
    graph = farmer.constructor.graph
    nodes = graph.node_map()
    return (
        graph.window_contents(),
        [
            (
                fid,
                node.access_count,
                node.change_tick,
                node.succ_fids.tobytes(),
                node.succ_weights.tobytes(),
                node.succ_raw.tobytes(),
                node.succ_last.tobytes(),
            )
            for fid, node in sorted(nodes.items())
        ],
    )


def drive(service: ShardedFarmer, segments) -> tuple[int, int]:
    """Feed ``segments`` through their entry points; returns the summed
    ``(n_echoes_shed, n_dropped_failed)`` of the ingest reports."""
    shed = lost = 0
    for entry, payload in segments:
        if entry == "fail":
            service.fail_shard(payload)
        elif entry == "observe":
            for record, _ in payload:
                service.observe(record)
        elif entry == "mine":
            service.mine([record for record, _ in payload])
        else:
            report = service.ingest_stream(payload)
            shed += report.n_echoes_shed
            lost += report.n_dropped_failed
    return shed, lost


class TestRoutingOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scenario=scenarios())
    def test_every_entry_point_routes_like_the_oracle(self, scenario):
        config, segments = scenario
        service = ShardedFarmer(config)
        shed, lost = drive(service, segments)
        router = make_router(
            config.shard_policy,
            config.n_shards,
            virtual_nodes=config.router_virtual_nodes,
            seed=config.router_seed,
        )
        expected = route_substreams(
            segments,
            n_shards=config.n_shards,
            route=router.route,
            cross_shard_edges=config.cross_shard_edges,
            op_filter=config.op_filter,
            sync_interval=(
                config.standby_sync_interval if config.replication else None
            ),
        )
        for index, shard in enumerate(service.shards):
            reference = Farmer(config)
            reference.ingest_mixed(expected.substreams[index])
            assert graph_state(shard) == graph_state(reference), index
            assert shard.n_observed == len(expected.substreams[index]), index
        assert service.n_observed == expected.n_observed
        assert service.n_boundary_echoes == expected.n_boundary_echoes
        assert service.n_echoes_shed == shed == expected.n_echoes_shed
        assert lost == expected.n_dropped_failed
        assert service.echo_drop_counts == tuple(expected.echo_drops)
        assert service.n_echoes_dropped == sum(expected.echo_drops)
        assert service.last_standby_sync == (
            expected.barriers[-1] if expected.barriers else 0
        )
        assert service.stats().n_standby_syncs == len(expected.barriers)
