"""Tests for the selectors-based multi-peer poller."""

import time

import pytest

from repro.rpc import MultiPoller, RpcClient, RpcServer, TraceContext

CATALOG = ("cpu_idle_pct", "loadavg_1")


class SlowableHandler:
    """A poll handler whose response can be delayed per instance."""

    metric_names = CATALOG

    def __init__(self, name: str, delay_s: float = 0.0):
        self.name = name
        self.delay_s = delay_s

    def rpc_sample(self, now=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        return {
            "timestamp": float(now or 0.0),
            "node_name": self.name,
            "node": {"cpu_idle_pct": 60.0, "loadavg_1": 0.5},
            "emit_wall": time.time(),  # fpt: noqa[FPT201] -- live-socket test fixture
        }

    def rpc_poll_many(self, now=None, max_windows=32):
        return {
            "node_name": self.name,
            "windows": [self.rpc_sample(now)],
        }


def _cluster(delays):
    """Spawn one server+client per delay; returns (servers, clients)."""
    servers = []
    clients = []
    for index, delay in enumerate(delays):
        server = RpcServer(
            SlowableHandler(f"node-{index}", delay), f"sadc@{index}"
        )
        server.start()
        servers.append(server)
        host, port = server.address
        clients.append(RpcClient(host, port))
    return servers, clients


def _teardown(servers, clients):
    for client in clients:
        client.close()
    for server in servers:
        server.stop()


class TestMultiPoller:
    def test_polls_every_peer(self):
        servers, clients = _cluster([0.0] * 4)
        try:
            calls = {
                f"node-{i}": (client, "sample", {"now": 1.0})
                for i, client in enumerate(clients)
            }
            outcomes = MultiPoller().poll(calls, trace=None, timeout_s=5.0)
            assert set(outcomes) == set(calls)
            assert all(outcome.ok for outcome in outcomes.values())
            for i, client in enumerate(clients):
                assert outcomes[f"node-{i}"].result["node_name"] == f"node-{i}"
        finally:
            _teardown(servers, clients)

    def test_round_tracks_slowest_not_sum(self):
        # Four peers each sleeping 0.3s: a serial poll costs ~1.2s, a
        # pipelined one ~0.3s.  The 0.8s ceiling fails the serial case
        # deterministically while leaving slack for scheduler noise.
        delay = 0.3
        servers, clients = _cluster([delay] * 4)
        try:
            calls = {
                f"node-{i}": (client, "sample", {"now": 1.0})
                for i, client in enumerate(clients)
            }
            started = time.perf_counter()
            outcomes = MultiPoller().poll(calls, trace=None, timeout_s=10.0)
            elapsed = time.perf_counter() - started
            assert all(outcome.ok for outcome in outcomes.values())
            assert elapsed < len(clients) * delay * 0.67, (
                f"poll took {elapsed:.2f}s -- looks serial, not pipelined"
            )
        finally:
            _teardown(servers, clients)

    def test_slow_peer_times_out_others_succeed(self):
        servers, clients = _cluster([0.0, 5.0, 0.0])
        try:
            calls = {
                f"node-{i}": (client, "sample", {"now": 1.0})
                for i, client in enumerate(clients)
            }
            outcomes = MultiPoller().poll(calls, trace=None, timeout_s=1.0)
            assert outcomes["node-0"].ok
            assert outcomes["node-2"].ok
            assert not outcomes["node-1"].ok
            assert "timed out" in str(outcomes["node-1"].error)
        finally:
            _teardown(servers, clients)

    def test_rtt_recorded_per_peer(self):
        servers, clients = _cluster([0.0, 0.2])
        try:
            calls = {
                f"node-{i}": (client, "sample", {"now": 1.0})
                for i, client in enumerate(clients)
            }
            outcomes = MultiPoller().poll(calls, trace=None, timeout_s=5.0)
            assert outcomes["node-1"].rtt_s >= 0.2
            assert outcomes["node-0"].rtt_s < outcomes["node-1"].rtt_s
        finally:
            _teardown(servers, clients)

    def test_empty_calls(self):
        assert MultiPoller().poll({}, trace=None, timeout_s=1.0) == {}

    def test_trace_propagates_through_pipelined_poll(self):
        servers, clients = _cluster([0.0])
        try:
            trace = TraceContext.new_root(origin="test")
            calls = {"node-0": (clients[0], "sample", {"now": 1.0})}
            outcomes = MultiPoller().poll(calls, trace=trace, timeout_s=5.0)
            assert outcomes["node-0"].ok
        finally:
            _teardown(servers, clients)

    def test_dead_peer_fails_without_blocking_others(self):
        servers, clients = _cluster([0.0, 0.0])
        try:
            clients[1].close()  # connection already torn down
            calls = {
                f"node-{i}": (client, "sample", {"now": 1.0})
                for i, client in enumerate(clients)
            }
            outcomes = MultiPoller().poll(calls, trace=None, timeout_s=2.0)
            assert outcomes["node-0"].ok
            assert not outcomes["node-1"].ok
        finally:
            _teardown(servers, clients)
