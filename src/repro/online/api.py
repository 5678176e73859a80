"""The query/admin plane: a stdlib-HTTP JSON API over OnlineService.

One :class:`AdminApiServer` wraps a running
:class:`~repro.online.pipeline.OnlineService` in a
``ThreadingHTTPServer`` (stdlib only — no new dependencies). Every
request thread goes through the service's endpoint methods, which take
the shared service lock, so queries and admin operations serve
concurrently with mining exactly under the existing lock story.

Endpoints (all JSON)::

    GET  /health                      liveness + consumer state
    GET  /predict?fid=N[&k=K]         prefetch candidates for fid
    GET  /correlators?fid=N           valid correlates of fid
    GET  /stats                       OnlineStats rollup
    GET  /snapshot                    Correlator-List aggregate snapshot
    GET  /telemetry                   counters, time series, latency
    POST /ingest                      JSONL records in the body
    POST /fail_shard                  {"shard": i}
    POST /promote_standby             {"shard": i}
    POST /rebalance                   {"n_shards"?, "policy"?, "weights"?}
    POST /auto_rebalance              {}
    POST /drain                       full consume+flush barrier
    POST /snapshot                    durable checkpoint (needs --data-dir)
    POST /shutdown                    stop serving (clean exit seam)

``GET /snapshot`` (the Correlator-List aggregate) and ``POST
/snapshot`` (the durability checkpoint) share a path but not a
meaning — the GET is a query, the POST is a barrier. When the service
runs with a data directory, ``GET /stats`` carries the WAL/snapshot/
recovery rollup under ``durability``.

Error mapping: bad arguments → 400 (``/ingest`` checks every line
before it offers any — a line that does not parse, has an integer
outside int64 or a path/op that is not UTF-8 text is named, and nothing
of the body is accepted); unknown path → 404; an operation
the service refuses (failed shard, replication disabled, bad config)
→ 409 with the error text. The handler never serves tracebacks.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, is_dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    ConfigError,
    PersistenceError,
    ReplicationError,
    ShardFailedError,
    TraceFormatError,
)
from repro.online.pipeline import OnlineService
from repro.traces.io import record_from_dict
from repro.traces.record import TraceRecord

__all__ = ["AdminApiServer"]


def _jsonable(value):
    """Dataclasses → dicts, recursively; everything else passes through
    (the reports and stats objects are all dataclass trees)."""
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    return value


def _ingest_record(line: str, lineno: int) -> TraceRecord:
    """One ``/ingest`` line as a record the service will take: parsed,
    every integer an int64 (:func:`record_from_dict`), and path and op
    UTF-8 text (what the WAL journals)."""
    record = record_from_dict(json.loads(line), lineno)
    for name in ("path", "op"):
        value = getattr(record, name)
        if value is None:  # no path
            continue
        try:
            value.encode()
        except UnicodeEncodeError:
            raise TraceFormatError(
                f"bad trace record: {name}={value!r} is not UTF-8 text", lineno
            ) from None
    return record


class _ApiError(Exception):
    """Internal: carries an HTTP status + message to the handler."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class AdminApiServer:
    """Serve an :class:`OnlineService` over HTTP on ``host:port``.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    construction — the test/CI pattern). :meth:`start` serves on a
    daemon thread; :meth:`stop` shuts the listener down. The
    ``shutdown_event`` is set by ``POST /shutdown`` so a CLI can block
    on it for a clean remote-triggered exit.
    """

    def __init__(
        self,
        online: OnlineService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.online = online
        self.shutdown_event = threading.Event()
        self._httpd = ThreadingHTTPServer(
            (host, port), self._make_handler()
        )
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        """Bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AdminApiServer":
        """Serve on a daemon thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="farmer-api", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the listener and join the serving thread."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "AdminApiServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            """Per-connection request handler closed over the server."""

            # quiet: request logging would interleave with service output
            def log_message(self, fmt, *args):  # pragma: no cover
                pass

            def _send(self, status: int, payload: dict) -> None:
                body = json.dumps(_jsonable(payload)).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _body(self) -> bytes:
                length = int(self.headers.get("Content-Length") or 0)
                return self.rfile.read(length) if length else b""

            def _json_body(self) -> dict:
                raw = self._body()
                if not raw:
                    return {}
                try:
                    data = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise _ApiError(400, f"invalid JSON body: {exc}")
                if not isinstance(data, dict):
                    raise _ApiError(400, "JSON body must be an object")
                return data

            def _int_arg(self, data: dict, name: str) -> int:
                value = data.get(name)
                if value is None:
                    raise _ApiError(400, f"missing required field {name!r}")
                try:
                    return int(value)
                except (TypeError, ValueError):
                    raise _ApiError(400, f"field {name!r} must be an int")

            def _dispatch(self, fn) -> None:
                try:
                    self._send(200, fn())
                except _ApiError as exc:
                    self._send(exc.status, {"error": str(exc)})
                except (
                    ConfigError,
                    PersistenceError,
                    ReplicationError,
                    ShardFailedError,
                ) as exc:
                    # the service refused: a client problem, not a crash
                    self._send(409, {"error": str(exc)})

            def do_GET(self) -> None:
                url = urlparse(self.path)
                query = parse_qs(url.query)
                online = server.online

                def q_int(name: str) -> int:
                    values = query.get(name)
                    if not values:
                        raise _ApiError(400, f"missing query arg {name!r}")
                    try:
                        return int(values[0])
                    except ValueError:
                        raise _ApiError(400, f"query arg {name!r} must be an int")

                if url.path == "/health":
                    self._dispatch(
                        lambda: {
                            "status": "ok",
                            "consumer_running": online.running,
                            "queue_depth": online.pipeline.depth,
                        }
                    )
                elif url.path == "/predict":
                    def predict():
                        k = q_int("k") if query.get("k") else None
                        fid = q_int("fid")
                        return {"fid": fid, "predicted": online.predict(fid, k)}

                    self._dispatch(predict)
                elif url.path == "/correlators":
                    def correlators():
                        fid = q_int("fid")
                        return {
                            "fid": fid,
                            "correlators": [
                                {"fid": e.fid, "degree": e.degree}
                                for e in online.correlators(fid)
                            ],
                        }

                    self._dispatch(correlators)
                elif url.path == "/stats":
                    self._dispatch(lambda: _jsonable(online.stats()))
                elif url.path == "/snapshot":
                    self._dispatch(lambda: _jsonable(online.snapshot()))
                elif url.path == "/telemetry":
                    self._dispatch(online.telemetry.snapshot)
                else:
                    self._send(404, {"error": f"unknown path {url.path!r}"})

            def do_POST(self) -> None:
                url = urlparse(self.path)
                online = server.online
                if url.path == "/ingest":
                    def ingest():
                        # all or nothing: every line is checked before
                        # the first offer, so a refused body leaves the
                        # queue and the WAL untouched
                        records = []
                        for lineno, line in enumerate(
                            self._body().decode("utf-8").splitlines(), 1
                        ):
                            if not line.strip():
                                continue
                            try:
                                records.append(_ingest_record(line, lineno))
                            except Exception as exc:
                                raise _ApiError(
                                    400, f"bad record on line {lineno}: {exc}"
                                )
                        results: dict[str, int] = {}
                        for record in records:
                            outcome = online.offer(record).value
                            results[outcome] = results.get(outcome, 0) + 1
                        return {"admission": results}

                    self._dispatch(ingest)
                elif url.path == "/fail_shard":
                    def fail():
                        index = self._int_arg(self._json_body(), "shard")
                        online.fail_shard(index)
                        return {"failed": index}

                    self._dispatch(fail)
                elif url.path == "/promote_standby":
                    def promote():
                        index = self._int_arg(self._json_body(), "shard")
                        return _jsonable(online.promote_standby(index))

                    self._dispatch(promote)
                elif url.path == "/rebalance":
                    def rebalance():
                        data = self._json_body()
                        kwargs = {}
                        if "policy" in data:
                            kwargs["policy"] = str(data["policy"])
                        if "weights" in data:
                            kwargs["weights"] = [
                                float(w) for w in data["weights"]
                            ]
                        n_shards = (
                            self._int_arg(data, "n_shards")
                            if "n_shards" in data
                            else None
                        )
                        return _jsonable(
                            online.rebalance(n_shards, **kwargs)
                        )

                    self._dispatch(rebalance)
                elif url.path == "/auto_rebalance":
                    self._dispatch(lambda: _jsonable(online.auto_rebalance()))
                elif url.path == "/drain":
                    self._dispatch(lambda: _jsonable(online.drain()))
                elif url.path == "/snapshot":
                    self._dispatch(lambda: _jsonable(online.checkpoint()))
                elif url.path == "/shutdown":
                    self._dispatch(lambda: {"shutting_down": True})
                    server.shutdown_event.set()
                else:
                    self._send(404, {"error": f"unknown path {url.path!r}"})

        return Handler
