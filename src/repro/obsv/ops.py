"""Live ops surface: a stdlib-only HTTP endpoint over an Observatory.

DCDB Wintermute's lesson (PAPERS.md) is that an online analytics system
earns its keep when its state is *queryable while it runs*.  This module
serves exactly that, with nothing beyond ``http.server``:

========================  ==================================================
path                      payload
========================  ==================================================
``/health``               liveness JSON (sim time, alarm/decision counters)
``/metrics``              Prometheus text exposition of the core's metrics
``/metrics.json``         the metrics registry snapshot (what the cluster
                          federator scrapes -- structured, not text)
``/status``               DAG topology + per-module run stats (JSON)
``/alarms``               the alarm records; ``?tail=N`` and ``?since=TS``
``/scoreboard``           the run scored against its ground truth
``/trace``                the telemetry tracer's Chrome-trace document
``/shutdown`` (POST/GET)  ask the embedding run to stop lingering
========================  ==================================================

A *cluster surface* (see :class:`repro.cluster.federation.MetricsFederator`)
may be attached; it adds ``/cluster`` (topology + per-daemon liveness)
and ``/control/<action>`` (drive commands for the load driver), and
takes over ``/metrics`` and ``/status`` with the federated cluster-wide
views -- per-daemon surfaces stay reachable on each daemon's own port.

The server runs on a daemon thread; readers only touch grow-only or
atomically-replaced structures, so the GIL gives the in-process demo all
the consistency it needs.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from .observatory import Observatory

__all__ = ["OpsServer"]


def _query_float(query: dict, key: str) -> Optional[float]:
    values = query.get(key)
    if not values:
        return None
    try:
        return float(values[-1])
    except ValueError:
        return None


def _query_int(query: dict, key: str) -> Optional[int]:
    value = _query_float(query, key)
    return int(value) if value is not None else None


class _OpsHandler(BaseHTTPRequestHandler):
    """Routes one request against the server's observatory."""

    server_version = "asdf-obsv/1"
    observatory: Observatory  # installed by OpsServer on the handler class
    cluster = None            # optional federated cluster surface

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # quiet: the ops surface must not spam the run's stdout

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, obj, status: int = 200) -> None:
        body = json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        obsv = self.observatory
        route = parsed.path.rstrip("/") or "/"
        cluster = self.cluster
        if route in ("/", "/health"):
            self._send_json(obsv.health_obj())
        elif route == "/metrics":
            rendered = (
                cluster.render_metrics() if cluster is not None
                else obsv.telemetry.metrics.render_prometheus()
            )
            self._send(200, rendered.encode("utf-8"), "text/plain; version=0.0.4")
        elif route == "/metrics.json":
            self._send_json(obsv.telemetry.metrics.snapshot())
        elif route == "/status":
            self._send_json(
                cluster.status_obj() if cluster is not None
                else obsv.status_obj()
            )
        elif route == "/trace":
            self._send_json(obsv.telemetry.tracer.to_chrome_trace())
        elif route == "/cluster" and cluster is not None:
            self._send_json(cluster.cluster_obj())
        elif route.startswith("/control/") and cluster is not None:
            action = route[len("/control/"):]
            self._send_json(cluster.control(action, query))
        elif route == "/alarms":
            self._send_json(obsv.alarms_obj(
                tail=_query_int(query, "tail"),
                since=_query_float(query, "since"),
            ))
        elif route == "/scoreboard":
            self._send_json(obsv.scoreboard_obj())
        elif route == "/shutdown":
            self.server.shutdown_requested.set()  # type: ignore[attr-defined]
            self._send_json({"shutting_down": True})
        else:
            self._send_json({"error": f"no such route: {parsed.path}"}, 404)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.do_GET()


class OpsServer:
    """Serve an Observatory over HTTP on a daemon thread.

    ``port=0`` binds an ephemeral port; read :attr:`port`/:attr:`url`
    after :meth:`start`.  ``shutdown_requested`` is set by ``/shutdown``
    so an embedding CLI loop (``demo --linger``) can end early.
    """

    def __init__(
        self,
        observatory: Observatory,
        host: str = "127.0.0.1",
        port: int = 0,
        cluster=None,
    ) -> None:
        self.observatory = observatory
        self.cluster = cluster
        handler = type("BoundOpsHandler", (_OpsHandler,), {
            "observatory": observatory,
            "cluster": cluster,
        })
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._httpd.shutdown_requested = threading.Event()  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def shutdown_requested(self) -> threading.Event:
        return self._httpd.shutdown_requested  # type: ignore[attr-defined]

    def start(self) -> "OpsServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="asdf-ops-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "OpsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
