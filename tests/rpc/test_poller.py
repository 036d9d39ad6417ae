"""Tests for the selectors-based multi-peer poller."""

import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.rpc import (
    MetricRow,
    MultiPoller,
    ProtocolError,
    RpcClient,
    RpcServer,
    TraceContext,
    encode_frame,
)
from repro.rpc.protocol import decode_frame, make_hello

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
            "node": MetricRow(CATALOG, np.array([60.0, 0.5])),
            "emit_wall": time.time(),
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


#: JSON documents ``json.loads`` refuses with something other than a
#: ``JSONDecodeError``, each well under the 16 MiB frame limit.
_DEEP = b'{"id":1,"result":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
_HUGE_INT = b'{"id":1,"result":' + b"7" * 5_000 + b"}"


def _bad_json_peer(body):
    """A one-connection peer: welcomes, then answers the first request
    with ``body`` as the frame's payload."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        with conn, listener:
            conn.recv(65536)  # the hello
            conn.sendall(encode_frame(
                {"welcome": "bad", "version": 2, "methods": ["info"]}
            ))
            conn.recv(65536)  # the request
            conn.sendall(struct.pack(">I", len(body)) + body)
            conn.recv(1)      # hold the connection until the client closes

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()


class TestMalformedJsonPeer:
    """A peer whose JSON ``json.loads`` refuses with ``RecursionError``
    or ``ValueError`` used to make ``poll()`` raise and lose the round."""

    @pytest.mark.parametrize("body", [
        _DEEP,
        pytest.param(_HUGE_INT, marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"),
            reason="no integer digit limit in this interpreter",
        )),
    ], ids=["nested-past-the-recursion-limit", "int-over-the-digit-limit"])
    def test_its_outcome_is_a_protocol_error_and_the_round_survives(self, body):
        servers, clients = _cluster([0.0])
        bad = RpcClient(*_bad_json_peer(body))
        try:
            calls = {
                "good": (clients[0], "sample", {"now": 1.0}),
                "bad": (bad, "info", {}),   # a JSON call
            }
            outcomes = MultiPoller().poll(calls, trace=None, timeout_s=5.0)
            assert outcomes["good"].ok
            assert outcomes["good"].result["node_name"] == "node-0"
            error = outcomes["bad"].error
            assert isinstance(error, ProtocolError)
            assert f"peer {bad.peer}" in str(error)
        finally:
            bad.close()
            _teardown(servers, clients)

    def test_decode_frame_maps_both_to_protocol_error(self):
        for body in (_DEEP, _HUGE_INT):
            with pytest.raises(ProtocolError, match=r"bad frame payload.*\(peer p:1\)"):
                decode_frame(struct.pack(">I", len(body)) + body, peer="p:1")

    def test_a_server_drops_such_a_client_and_keeps_serving(self):
        with RpcServer(SlowableHandler("node-0"), "sadc@0") as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                sock.sendall(encode_frame(make_hello("x")))
                sock.recv(65536)  # the welcome
                sock.sendall(struct.pack(">I", len(_DEEP)) + _DEEP)
                assert sock.recv(16) == b""
            with RpcClient(*server.address) as client:
                assert client.call("sample", now=1.0)["node_name"] == "node-0"
