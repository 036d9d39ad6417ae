"""Central-daemon integration over real sockets, all in one process.

Three ``ClusterNodeDaemon`` handlers run behind real ``RpcServer``
sockets; the central polls them exactly as it would separate OS
processes.  (Only the e2e test spawns actual subprocesses.)
"""

import time

import pytest

from repro.cluster import DaemonRuntime, write_runtime
from repro.cluster.central import CentralDaemon
from repro.rpc import ClusterNodeDaemon, RpcServer

from .helpers import SyntheticNodeLoad

NODES = ("node-01", "node-02", "node-03")


@pytest.fixture()
def node_servers(tmp_path):
    servers = {}
    loads = {}
    for i, name in enumerate(NODES):
        load = SyntheticNodeLoad(name, seed=100 + i)
        server = RpcServer(
            ClusterNodeDaemon(name, load), service=f"sadc@{name}"
        )
        server.start()
        write_runtime(str(tmp_path), DaemonRuntime(
            role="node", name=name, pid=1000 + i, host="127.0.0.1",
            rpc_port=server.address[1], ops_port=1, started_wall=0.0,
        ))
        servers[name] = server
        loads[name] = load
    yield servers, loads
    for server in servers.values():
        server.stop()


@pytest.fixture()
def central(tmp_path, node_servers):
    daemon = CentralDaemon(str(tmp_path), interval_s=0.05, k_rounds=2)
    yield daemon
    daemon.close()


def run_rounds(central, count, sleep_s=0.05):
    for _ in range(count):
        central.round()
        time.sleep(sleep_s)


class TestPolling:
    def test_samples_flow_from_every_node(self, central):
        run_rounds(central, 4)
        stats = central.stats_obj()
        assert stats["rounds"] == 4
        assert set(stats["nodes"]) == set(NODES)
        for node in NODES:
            entry = stats["nodes"][node]
            assert entry["connected"] is True
            assert entry["samples"] >= 2  # first poll primes differencing
            assert entry["rpc_bytes_received"] > 0

    def test_busy_readings_and_watermarks(self, central):
        run_rounds(central, 4)
        stats = central.stats_obj()
        for node in NODES:
            entry = stats["nodes"][node]
            assert 0.0 <= entry["busy_pct"] <= 100.0
            assert entry["watermark_lag_s"] >= 0.0

    def test_round_spans_carry_trace_ids(self, central):
        run_rounds(central, 2)
        rounds = [
            event for event in central.telemetry.tracer.events
            if event.name == "round"
        ]
        assert rounds
        assert all("trace_id" in event.args for event in rounds)
        calls = [
            event for event in central.telemetry.tracer.events
            if event.name.startswith("rpc.call:")
        ]
        trace_ids = {event.args.get("trace_id") for event in calls}
        assert trace_ids <= {event.args["trace_id"] for event in rounds}


class TestDetection:
    def test_cpuhog_indicts_the_loud_node(self, central):
        run_rounds(central, 3)
        assert central.stats_obj()["alarms_total"] == 0
        assert central.enqueue({
            "action": "inject", "node": "node-02",
            "kind": "cpuhog", "intensity": 1.0,
        })
        run_rounds(central, 8, sleep_s=0.08)
        stats = central.stats_obj()
        assert stats["alarms_total"] >= 1
        alarm = stats["alarms"][0]
        assert alarm["node"] == "node-02"
        assert alarm["source"] == "peer-deviation"
        assert alarm["wall_latency_s"] >= 0.0
        assert stats["alarm_wall_latency_s"]["count"] >= 1
        assert stats["alarm_wall_latency_s"]["p50"] >= 0.0

    def test_clear_resets_the_streak(self, central):
        central.enqueue({
            "action": "inject", "node": "node-02",
            "kind": "cpuhog", "intensity": 1.0,
        })
        run_rounds(central, 6, sleep_s=0.08)
        central.enqueue({"action": "clear", "node": "node-02"})
        run_rounds(central, 6, sleep_s=0.08)
        assert central.stats_obj()["nodes"]["node-02"]["streak"] == 0


class TestRespawnAdoption:
    def test_new_address_is_adopted_and_counted(self, tmp_path, central,
                                                node_servers):
        servers, loads = node_servers
        run_rounds(central, 3)
        assert central.stats_obj()["nodes"]["node-03"]["reconnects"] == 0

        # "Respawn" node-03: a fresh server on a new port, republished
        # under a new pid -- what the launcher does after a SIGKILL.
        servers["node-03"].stop()
        replacement = RpcServer(
            ClusterNodeDaemon("node-03", SyntheticNodeLoad("node-03")),
            service="sadc@node-03",
        )
        replacement.start()
        servers["node-03"] = replacement
        write_runtime(str(tmp_path), DaemonRuntime(
            role="node", name="node-03", pid=9999, host="127.0.0.1",
            rpc_port=replacement.address[1], ops_port=1, started_wall=1.0,
        ))

        run_rounds(central, 3)
        entry = central.stats_obj()["nodes"]["node-03"]
        assert entry["connected"] is True
        assert entry["reconnects"] >= 1
        assert central.stats_obj()["reconnects"] >= 1

    def test_mark_resets_throughput_window(self, central):
        run_rounds(central, 3)
        central.enqueue({"action": "mark"})
        central.round()
        stats = central.stats_obj()
        assert stats["samples_since_mark"] <= len(NODES)
        assert stats["samples_total"] >= stats["samples_since_mark"]
