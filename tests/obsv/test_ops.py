"""HTTP tests for the live ops surface (real sockets, stdlib client)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.analysis.metrics import GroundTruth
from repro.obsv import Observatory, OpsServer

from .helpers import SCORED_PIPELINE_CONFIG, ALARM_SCRIPT, build_core


@pytest.fixture()
def served():
    observatory = Observatory()
    observatory.register_ground_truth(
        "CPUHog", GroundTruth(faulty_node="slave01", inject_time=2.0)
    )
    core = build_core(
        SCORED_PIPELINE_CONFIG,
        services={
            "script": {"src": ALARM_SCRIPT},
            "observatory": observatory,
        },
    )
    observatory.attach(core)
    core.run_until(float(len(ALARM_SCRIPT)))
    with OpsServer(observatory) as server:
        yield server
    core.close()


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5.0) as response:
        return response.status, response.headers, response.read()


def get_json(server, path):
    status, _headers, body = get(server, path)
    assert status == 200
    return json.loads(body)


class TestRoutes:
    def test_health(self, served):
        doc = get_json(served, "/health")
        assert doc["status"] == "ok"
        assert doc["alarms_seen"] == 3
        # The root path is an alias.
        assert get_json(served, "/")["status"] == "ok"

    def test_metrics_is_prometheus_text(self, served):
        status, headers, body = get(served, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"asdf_alarm_sim_latency_seconds" in body

    def test_status_has_topology(self, served):
        doc = get_json(served, "/status")
        assert "board" in doc["instances"]
        assert any(edge["to"] == "board" for edge in doc["edges"])

    def test_scoreboard(self, served):
        doc = get_json(served, "/scoreboard")
        assert doc["format"] == "asdf-scoreboard/2"
        assert doc["fault"] == "CPUHog"
        assert doc["alarms"]["union.alarms"]["true_alarms"] == 3

    def test_alarms_tail_and_since(self, served):
        doc = get_json(served, "/alarms")
        assert set(doc) == {"total", "returned", "alarms"}
        assert doc["total"] == doc["returned"] == 3
        assert [a["alarm_time"] for a in doc["alarms"]] == [3.0, 4.0, 7.0]
        assert {a["sink"] for a in doc["alarms"]} == {"board"}
        assert all(a["delivered"] == ["thr.alarms", "union.alarms"]
                   and a["total_sim_s"] is not None
                   and a["total_wall_s"] is not None
                   for a in doc["alarms"])
        # A tail longer than the record count returns every record.
        for tail, times in ((5, [3.0, 4.0, 7.0]), (4, [3.0, 4.0, 7.0]),
                            (3, [3.0, 4.0, 7.0]), (2, [4.0, 7.0]), (0, [])):
            doc = get_json(served, f"/alarms?tail={tail}")
            assert doc["total"] == 3
            assert [a["alarm_time"] for a in doc["alarms"]] == times, tail
        doc = get_json(served, "/alarms?tail=1&since=3.5")
        assert [a["alarm_time"] for a in doc["alarms"]] == [7.0]
        doc = get_json(served, "/alarms?since=3.5")
        assert [a["alarm_time"] for a in doc["alarms"]] == [4.0, 7.0]

    def test_unknown_route_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(served, "/nope")
        assert excinfo.value.code == 404

    def test_shutdown_sets_event(self, served):
        assert not served.shutdown_requested.is_set()
        doc = get_json(served, "/shutdown")
        assert doc["shutting_down"] is True
        assert served.shutdown_requested.is_set()


class TestLifecycle:
    def test_ephemeral_port_and_idempotent_start_stop(self):
        server = OpsServer(Observatory())
        server.start()
        server.start()  # no-op
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")
        server.stop()
        server.stop()  # no-op
