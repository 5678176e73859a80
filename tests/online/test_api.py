"""The HTTP query/admin plane, exercised over real sockets."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.config import FarmerConfig
from repro.durability import DurabilityManager
from repro.online.api import AdminApiServer
from repro.online.pipeline import OnlineService
from tests.conftest import sequence_records


def get(url, path):
    with urllib.request.urlopen(url + path, timeout=10.0) as resp:
        return json.loads(resp.read())


def post(url, path, payload=None, raw=None):
    data = (
        raw
        if raw is not None
        else (json.dumps(payload).encode() if payload is not None else b"")
    )
    req = urllib.request.Request(url + path, data=data, method="POST")
    with urllib.request.urlopen(req, timeout=10.0) as resp:
        return json.loads(resp.read())


def status_of(exc_info):
    return exc_info.value.code, json.loads(exc_info.value.read())


@pytest.fixture
def served():
    """A mined OnlineService behind a live ephemeral-port API."""
    cfg = FarmerConfig(
        n_shards=2,
        max_strength=0.3,
        replication=True,
        standby_sync_interval=64,
    )
    online = OnlineService(cfg, batch_size=64)
    for r in sequence_records([1, 2, 3, 4] * 50):
        online.offer(r)
    online.drain()
    with AdminApiServer(online) as api:
        yield online, api.url


class TestQueryEndpoints:
    def test_health(self, served):
        online, url = served
        body = get(url, "/health")
        assert body["status"] == "ok"
        assert body["queue_depth"] == 0

    def test_predict_matches_service(self, served):
        online, url = served
        body = get(url, "/predict?fid=1&k=3")
        assert body == {"fid": 1, "predicted": online.predict(1, 3)}

    def test_correlators(self, served):
        online, url = served
        body = get(url, "/correlators?fid=1")
        expected = [
            {"fid": e.fid, "degree": e.degree} for e in online.correlators(1)
        ]
        assert body["correlators"] == expected

    def test_stats_and_snapshot(self, served):
        online, url = served
        stats = get(url, "/stats")
        assert stats["service"]["n_observed"] == 200
        assert stats["pipeline"]["n_accepted"] == 200
        snapshot = get(url, "/snapshot")
        assert snapshot["n_lists"] > 0

    def test_telemetry(self, served):
        _, url = served
        body = get(url, "/telemetry")
        assert body["counters"]["admission.accepted"] == 200
        assert "queue_depth" in body["series"]
        assert "ingest_batch" in body["endpoints"]


class TestAdminEndpoints:
    def test_ingest_jsonl_body(self, served):
        online, url = served
        lines = "\n".join(
            json.dumps({"ts": i, "fid": 9, "uid": 1, "pid": 1, "host": 1})
            for i in range(5)
        )
        body = post(url, "/ingest", raw=lines.encode())
        assert body["admission"] == {"accepted": 5}
        assert online.pipeline.counters().n_accepted == 205

    def test_failover_cycle_over_the_api(self, served):
        online, url = served
        post(url, "/fail_shard", {"shard": 1})
        assert online.service.failed_shards == (1,)
        body = post(url, "/promote_standby", {"shard": 1})
        assert body["shard"] == 1
        assert online.service.failed_shards == ()
        # the partition answers again
        assert isinstance(get(url, "/predict?fid=1")["predicted"], list)

    def test_rebalance_and_auto_rebalance(self, served):
        online, url = served
        body = post(url, "/rebalance", {"n_shards": 3})
        assert body["n_shards_after"] == 3
        auto = post(url, "/auto_rebalance")
        assert len(auto["weights"]) == 3

    def test_drain_reports(self, served):
        online, url = served
        for r in sequence_records([1, 2]):
            online.offer(r)
        body = post(url, "/drain")
        assert body["n_consumed"] == 2
        assert online.pipeline.depth == 0

    def test_shutdown_sets_the_event(self, served):
        online, url = served
        body = post(url, "/shutdown")
        assert body == {"shutting_down": True}


class TestErrorMapping:
    def test_unknown_path_404(self, served):
        _, url = served
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            get(url, "/nope")
        code, body = status_of(exc_info)
        assert code == 404 and "unknown path" in body["error"]

    def test_missing_arg_400(self, served):
        _, url = served
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            get(url, "/predict")
        code, body = status_of(exc_info)
        assert code == 400 and "fid" in body["error"]

    def test_non_int_arg_400(self, served):
        _, url = served
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            get(url, "/predict?fid=seven")
        code, _ = status_of(exc_info)
        assert code == 400

    def test_missing_body_field_400(self, served):
        _, url = served
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            post(url, "/fail_shard", {})
        code, body = status_of(exc_info)
        assert code == 400 and "shard" in body["error"]

    def test_bad_ingest_record_400(self, served):
        _, url = served
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            post(url, "/ingest", raw=b"not json\n")
        code, _ = status_of(exc_info)
        assert code == 400

    def test_out_of_int64_ingest_record_400(self, served):
        """A value the miner cannot hold is refused at parsing: 400
        naming the line, and the service keeps serving."""
        online, url = served
        lines = [
            {"ts": 1, "fid": 9, "uid": 1, "pid": 1, "host": 1},
            {"ts": 2, "fid": 2**63, "uid": 1, "pid": 1, "host": 1},
        ]
        raw = "\n".join(json.dumps(line) for line in lines).encode()
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            post(url, "/ingest", raw=raw)
        code, body = status_of(exc_info)
        assert code == 400 and "line 2" in body["error"]
        assert "fid" in body["error"]
        assert online.pipeline.counters().n_accepted == 201
        online.drain()
        assert get(url, "/health")["status"] == "ok"

    def test_wal_refusal_maps_to_400(self, tmp_path):
        """A lone surrogate parses from JSON but has no UTF-8 form: the
        WAL refuses it before journaling, and the client gets a 400."""
        manager = DurabilityManager(tmp_path)
        online = OnlineService(FarmerConfig(n_shards=2), durability=manager)
        raw = json.dumps(
            {"ts": 1, "fid": 9, "uid": 1, "pid": 1, "host": 1, "path": "/\ud800"}
        ).encode()
        assert b"\\ud800" in raw
        with AdminApiServer(online) as api:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                post(api.url, "/ingest", raw=raw)
            code, body = status_of(exc_info)
            assert code == 400 and "line 1" in body["error"]
            assert get(api.url, "/health")["status"] == "ok"
        assert manager.wal.next_seq == 0
        assert online.pipeline.counters().n_accepted == 0
        manager.close()

    def test_service_refusal_maps_to_409(self):
        """promote_standby without replication: the service's
        ReplicationError surfaces as a 409, not a traceback."""
        online = OnlineService(FarmerConfig(n_shards=2))
        with AdminApiServer(online) as api:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                post(api.url, "/promote_standby", {"shard": 0})
            code, body = status_of(exc_info)
        assert code == 409 and "replication" in body["error"].lower()

    def test_invalid_json_body_400(self, served):
        _, url = served
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            post(url, "/fail_shard", raw=b"{broken")
        code, _ = status_of(exc_info)
        assert code == 400
