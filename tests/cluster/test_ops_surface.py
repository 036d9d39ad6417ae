"""The cluster surface mounted on a real OpsServer (HTTP round trips)."""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.cluster import DaemonRuntime, MetricsFederator, write_runtime
from repro.obsv import Observatory, OpsServer
from repro.telemetry.metrics import MetricsRegistry


class StubCentral:
    def __init__(self):
        self.commands = []
        registry = MetricsRegistry()
        registry.counter("asdf_rounds_total", "Rounds.").inc(4)
        self._registry = registry

    def stats_obj(self):
        return {"rounds": 4, "nodes": {"node-01": {"connected": True}}}

    def enqueue(self, command):
        self.commands.append(command)
        return True

    def own_metrics_snapshot(self):
        return self._registry.snapshot()

    def collect_trace(self):
        return {"traceEvents": [], "otherData": {"producer": "stub"}}


@pytest.fixture()
def served(tmp_path):
    write_runtime(str(tmp_path), DaemonRuntime(
        role="node", name="node-01", pid=os.getpid(), host="127.0.0.1",
        rpc_port=4000, ops_port=1, started_wall=0.0,
    ))
    central = StubCentral()
    federator = MetricsFederator(str(tmp_path), central)
    with OpsServer(Observatory(), cluster=federator) as server:
        yield server, central


def get_json(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5.0) as response:
        return json.loads(response.read())


class TestClusterRoutes:
    def test_cluster_topology(self, served):
        server, _central = served
        doc = get_json(server, "/cluster")
        assert doc["rounds"] == 4
        (daemon,) = doc["daemons"]
        assert daemon["name"] == "node-01"
        assert daemon["alive"] is True

    def test_metrics_is_federated(self, served):
        server, _central = served
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=5.0) as response:
            body = response.read().decode()
        assert 'asdf_rounds_total{daemon="central"} 4\n' in body

    def test_status_is_cluster_wide(self, served):
        server, _central = served
        doc = get_json(server, "/status")
        assert doc["rounds"] == 4
        assert doc["daemons"][0]["name"] == "node-01"

    def test_control_round_trip(self, served):
        server, central = served
        doc = get_json(server, "/control/inject?node=node-01&kind=cpuhog")
        assert doc["queued"] is True
        assert central.commands[0]["node"] == "node-01"

    def test_control_trace(self, served):
        server, _central = served
        doc = get_json(server, "/control/trace")
        assert doc["otherData"]["producer"] == "stub"

    def test_without_cluster_routes_404(self):
        with OpsServer(Observatory()) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(server, "/cluster")
            assert excinfo.value.code == 404
