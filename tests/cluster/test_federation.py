"""Metrics federation: re-rendering scraped snapshots, cluster views."""

import json
import os

from repro.cluster import DaemonRuntime, MetricsFederator, write_runtime
from repro.telemetry.metrics import MetricsRegistry, render_snapshot_prometheus


def make_snapshot():
    registry = MetricsRegistry()
    registry.counter(
        "asdf_things_total", "Things.", labels={"kind": "a"}
    ).inc(3)
    registry.histogram(
        "asdf_lat_seconds", "Latency.", labels={"svc": "x"}
    ).observe(0.2)
    return registry.snapshot()


class TestRenderSnapshot:
    def test_series_carry_extra_labels(self):
        text = render_snapshot_prometheus(
            make_snapshot(), {"daemon": "node-01"}
        )
        assert (
            'asdf_things_total{daemon="node-01",kind="a"} 3\n' in text
        )

    def test_help_and_type_lines(self):
        text = render_snapshot_prometheus(make_snapshot())
        assert "# HELP asdf_things_total Things." in text
        assert "# TYPE asdf_things_total counter" in text
        assert "# TYPE asdf_lat_seconds histogram" in text

    def test_histograms_expand_to_buckets(self):
        text = render_snapshot_prometheus(make_snapshot(), {"daemon": "n"})
        assert 'asdf_lat_seconds_bucket{daemon="n",svc="x",le="+Inf"} 1' \
            in text
        assert 'asdf_lat_seconds_sum{daemon="n",svc="x"} 0.2' in text
        assert 'asdf_lat_seconds_count{daemon="n",svc="x"} 1' in text

    def test_empty_snapshot_renders_empty(self):
        assert render_snapshot_prometheus({}) == ""

    def test_federated_form_is_the_registrys_own(self):
        registry = MetricsRegistry()
        registry.counter("asdf_things_total", "Things.").inc(3)
        registry.histogram("asdf_lat_seconds", "Latency.").observe(0.2)
        federated = render_snapshot_prometheus(
            json.loads(json.dumps(registry.snapshot()))
        )
        assert federated == registry.render_prometheus()
        assert "asdf_things_total 3\n" in federated

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("asdf_things_total", labels={"kind": 'a"b\nc'}).inc()
        text = render_snapshot_prometheus(
            registry.snapshot(), {"daemon": 'node"01'}
        )
        assert (
            'asdf_things_total{daemon="node\\"01",kind="a\\"b\\nc"} 1\n'
            in text
        )


class StubCentral:
    """Duck-typed central: canned stats, recorded commands."""

    def __init__(self):
        self.commands = []
        self.stats = {
            "rounds": 5,
            "nodes": {"node-01": {"connected": True, "samples": 9}},
        }

    def stats_obj(self):
        return self.stats

    def enqueue(self, command):
        self.commands.append(command)
        return True

    def own_metrics_snapshot(self):
        return make_snapshot()

    def collect_trace(self):
        return {"traceEvents": []}


def publish(state_dir, name, role, pid):
    write_runtime(state_dir, DaemonRuntime(
        role=role, name=name, pid=pid, host="127.0.0.1",
        rpc_port=4000, ops_port=1,  # nothing listens on port 1
        started_wall=0.0,
    ))


class TestFederator:
    def test_cluster_obj_merges_runtime_and_poll_state(self, tmp_path):
        publish(str(tmp_path), "node-01", "node", os.getpid())
        publish(str(tmp_path), "central", "central", os.getpid())
        federator = MetricsFederator(str(tmp_path), StubCentral())
        doc = federator.cluster_obj()
        assert doc["rounds"] == 5
        by_name = {d["name"]: d for d in doc["daemons"]}
        assert by_name["node-01"]["alive"] is True
        assert by_name["node-01"]["samples"] == 9
        assert by_name["central"]["role"] == "central"

    def test_dead_pid_reported_not_alive(self, tmp_path):
        publish(str(tmp_path), "node-01", "node", 2 ** 22 + 999)
        federator = MetricsFederator(str(tmp_path), StubCentral())
        (daemon,) = federator.cluster_obj()["daemons"]
        assert daemon["alive"] is False

    def test_unreachable_daemon_counts_scrape_error(self, tmp_path):
        publish(str(tmp_path), "node-01", "node", os.getpid())
        federator = MetricsFederator(str(tmp_path), StubCentral())
        assert federator.scrape_all() == {}
        assert federator.scrape_errors == 1
        # The central's own snapshot still renders.
        assert 'daemon="central"' in federator.render_metrics()

    def test_control_stats_and_trace_are_read_only(self, tmp_path):
        central = StubCentral()
        federator = MetricsFederator(str(tmp_path), central)
        assert federator.control("stats", {})["rounds"] == 5
        assert federator.control("trace", {}) == {"traceEvents": []}
        assert central.commands == []

    def test_control_inject_enqueues_command(self, tmp_path):
        central = StubCentral()
        federator = MetricsFederator(str(tmp_path), central)
        doc = federator.control("inject", {
            "node": ["node-01"], "kind": ["diskhog"], "intensity": ["0.5"],
        })
        assert doc["queued"] is True
        assert central.commands == [{
            "action": "inject", "node": "node-01",
            "kind": "diskhog", "intensity": 0.5,
        }]

    def test_control_unknown_action_errors(self, tmp_path):
        federator = MetricsFederator(str(tmp_path), StubCentral())
        assert "error" in federator.control("reboot", {})
