"""Metrics federation: cluster-wide views served by the central daemon.

Each daemon keeps its own :class:`~repro.telemetry.MetricsRegistry` and
serves it on its own ops port (``/metrics`` Prometheus text,
``/metrics.json`` structured snapshot).  The federator -- attached to
the central daemon's :class:`~repro.obsv.OpsServer` as its *cluster
surface* -- scrapes every published daemon's ``/metrics.json``, tags
each series with a ``daemon`` label, and renders the merged registries
as one Prometheus exposition with the registry's own renderer
(:func:`~repro.telemetry.metrics.render_snapshot_prometheus`),
DCDB-style: per-node agents, one holistic scrape point.  It also serves ``/cluster`` (topology + per-daemon
liveness from runtime files and pid probes) and ``/control/<action>``
(the drive protocol: commands are queued for the central poll loop;
read-only queries return atomically-replaced snapshots, so the HTTP
handler thread never touches the loop's RPC clients).
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import Any, Dict, List

from ..telemetry.metrics import render_snapshot_prometheus
from .state import list_runtimes, pid_alive

__all__ = ["MetricsFederator", "http_get_json"]

#: Per-daemon scrape timeout; a hung daemon must not stall /metrics.
SCRAPE_TIMEOUT_S = 2.0


def http_get_json(url: str, timeout: float = SCRAPE_TIMEOUT_S) -> Any:
    """GET a JSON document; raises OSError/ValueError on failure."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class MetricsFederator:
    """The central daemon's cluster surface (ops-server plug-in).

    ``central`` is the owning :class:`~repro.cluster.central.CentralDaemon`
    (duck-typed: ``stats_obj()``, ``enqueue(command) -> bool``,
    ``own_metrics_snapshot()``, ``collect_trace()``); the federator never
    calls into the central's poll loop directly.
    """

    def __init__(self, state_dir: str, central) -> None:
        self.state_dir = state_dir
        self.central = central
        self.scrape_errors = 0

    # -- scraping ------------------------------------------------------------

    def scrape_all(self) -> Dict[str, Dict[str, Any]]:
        """Every reachable daemon's metrics snapshot, by daemon name."""
        snapshots: Dict[str, Dict[str, Any]] = {}
        for name, runtime in list_runtimes(self.state_dir).items():
            if runtime.role == "central":
                continue
            try:
                doc = http_get_json(f"{runtime.ops_url}/metrics.json")
            except (OSError, ValueError):
                self.scrape_errors += 1  # fpt: noqa[FPT401] -- single writer: only the central poll thread scrapes; handlers read
                continue
            if isinstance(doc, dict):
                snapshots[name] = doc
        return snapshots

    def render_metrics(self) -> str:
        """The cluster-wide Prometheus exposition (central + all nodes)."""
        parts = [
            render_snapshot_prometheus(
                self.central.own_metrics_snapshot(), {"daemon": "central"}
            )
        ]
        for name, snapshot in sorted(self.scrape_all().items()):
            parts.append(
                render_snapshot_prometheus(snapshot, {"daemon": name})
            )
        return "".join(parts)

    # -- topology / status ---------------------------------------------------

    def cluster_obj(self) -> dict:
        """Topology: every published daemon, its liveness, and poll state."""
        stats = self.central.stats_obj()
        per_node = stats.get("nodes", {})
        daemons = []
        for name, runtime in sorted(list_runtimes(self.state_dir).items()):
            entry = {
                "name": name,
                "role": runtime.role,
                "pid": runtime.pid,
                "alive": pid_alive(runtime.pid),
                "host": runtime.host,
                "rpc_port": runtime.rpc_port,
                "ops_port": runtime.ops_port,
                "started_wall": runtime.started_wall,
            }
            entry.update(per_node.get(name, {}))
            daemons.append(entry)
        return {
            "state_dir": self.state_dir,
            "now_wall": time.time(),
            "daemons": daemons,
            "rounds": stats.get("rounds", 0),
            "scrape_errors": self.scrape_errors,
        }

    def status_obj(self) -> dict:
        """Cluster-wide status: central loop health + per-daemon summary."""
        status = dict(self.central.stats_obj())
        status["daemons"] = self.cluster_obj()["daemons"]
        return status

    # -- drive protocol ------------------------------------------------------

    def control(self, action: str, query: Dict[str, List[str]]) -> dict:
        """One ``/control/<action>`` request from the load driver."""

        def arg(key: str, default: str = "") -> str:
            values = query.get(key)
            return values[-1] if values else default

        if action == "stats":
            return self.central.stats_obj()
        if action == "trace":
            return self.central.collect_trace()
        if action in ("inject", "clear", "mark"):
            command = {
                "action": action,
                "node": arg("node"),
                "kind": arg("kind", "cpuhog"),
                "intensity": float(arg("intensity", "1.0") or 1.0),
            }
            accepted = self.central.enqueue(command)
            return {"queued": bool(accepted), "command": command}
        return {"error": f"no such control action: {action}"}
