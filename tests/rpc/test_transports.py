"""Tests for the TCP and in-process RPC transports."""

import pytest

from repro.hadoop import TASKTRACKER_CLASS, WHITEBOX_STATES, DaemonLog
from repro.rpc import (
    ClusterNodeDaemon,
    HadoopLogDaemon,
    InprocChannel,
    ProtocolError,
    RemoteError,
    RpcClient,
    RpcServer,
    SadcDaemon,
    dispatch,
    handler_methods,
)
from repro.rpc.protocol import decode_frame, make_request
from repro.sysstat import NODE_METRICS

from cluster.helpers import SyntheticNodeLoad  # tests/cluster: the one test-side load
from sysstat.sadc_oracle import SampledProcFS  # tests/sysstat: the per-node sampler


class ToyHandler:
    """A minimal daemon handler for transport tests."""

    def rpc_add(self, a, b):
        return a + b

    def rpc_echo(self, value):
        return value

    def rpc_fail(self):
        raise RuntimeError("deliberate")

    def not_an_rpc(self):  # pragma: no cover - should never be callable
        return "hidden"


class TestDispatch:
    def test_handler_methods_lists_rpc_prefixed(self):
        assert handler_methods(ToyHandler()) == ["add", "echo", "fail"]

    def test_dispatch_success(self):
        response = dispatch(ToyHandler(), make_request(1, "add", {"a": 2, "b": 3}))
        assert response == {"id": 1, "result": 5}

    def test_dispatch_unknown_method(self):
        response = dispatch(ToyHandler(), make_request(1, "missing"))
        assert "no such method" in response["error"]

    def test_dispatch_bad_params(self):
        response = dispatch(ToyHandler(), make_request(1, "add", {"a": 2}))
        assert "bad parameters" in response["error"]

    def test_dispatch_handler_exception_reported(self):
        response = dispatch(ToyHandler(), make_request(1, "fail"))
        assert "RuntimeError" in response["error"]

    def test_dispatch_missing_method_name(self):
        response = dispatch(ToyHandler(), {"id": 9})
        assert "missing method" in response["error"]

    def test_dispatch_non_dict_params(self):
        response = dispatch(ToyHandler(), {"id": 1, "method": "add", "params": [1]})
        assert "params must be an object" in response["error"]

    def test_private_methods_not_exposed(self):
        response = dispatch(ToyHandler(), make_request(1, "not_an_rpc"))
        assert "error" in response


class TestTcpTransport:
    def test_call_over_real_socket(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                assert client.call("add", a=1, b=2) == 3
                assert client.service == "toy"
                assert "echo" in client.methods

    def test_remote_error_raised_client_side(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                with pytest.raises(RemoteError, match="deliberate"):
                    client.call("fail")
                # The connection survives an error response.
                assert client.call("echo", value="still alive") == "still alive"

    def test_multiple_sequential_calls(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                for i in range(10):
                    assert client.call("add", a=i, b=1) == i + 1

    def test_two_clients_share_a_server(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as c1, RpcClient(host, port) as c2:
                assert c1.call("echo", value=1) == 1
                assert c2.call("echo", value=2) == 2

    def test_byte_counters_populated(self):
        with RpcServer(ToyHandler(), "toy") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                client.call("add", a=1, b=2)
                assert client.counter.static_wire > 0
                assert client.counter.dynamic_wire > 0
            assert server.counter.messages_received >= 2  # hello + request


class TestInprocTransport:
    def test_call_matches_tcp_semantics(self):
        channel = InprocChannel(ToyHandler(), "toy")
        assert channel.call("add", a=4, b=5) == 9
        assert channel.methods == ["add", "echo", "fail"]

    def test_remote_error(self):
        channel = InprocChannel(ToyHandler(), "toy")
        with pytest.raises(RemoteError, match="deliberate"):
            channel.call("fail")

    def test_counts_bytes_like_wire_transport(self):
        channel = InprocChannel(ToyHandler(), "toy")
        static_before = channel.counter.static_wire
        assert static_before > 0
        channel.call("echo", value="x" * 100)
        assert channel.counter.dynamic_wire > 100
        assert channel.counter.static_wire == static_before

    def test_json_round_trip_enforced(self):
        """Values that cannot survive JSON must fail, exactly as on TCP."""

        class BadHandler:
            def rpc_bad(self):
                return {1, 2, 3}  # sets are not JSON-serializable

        channel = InprocChannel(BadHandler(), "bad")
        with pytest.raises(Exception):
            channel.call("bad")

    def test_close_is_noop(self):
        InprocChannel(ToyHandler(), "toy").close()


def _sadc_handler():
    procfs = SampledProcFS()
    return SadcDaemon("slave01", procfs), procfs


def _sadc_calls(procfs):
    def busy():
        procfs.cpu.user += 1.0
        procfs.cpu.idle += 3.0
        procfs.nic().rx_bytes += 4096.0

    return [
        ("sample", {"now": 0.0}, busy),       # priming: None
        ("sample", {"now": 1.0}, busy),
        ("list_metrics", {}, None),           # JSON on a binary connection
        ("sample", {"now": 2.0}, busy),
        ("sample", {"now": 2.0}, None),       # elapsed 0: None
    ]


def _node_handler():
    load = SyntheticNodeLoad("node-01", seed=5)
    return ClusterNodeDaemon("node-01", load), load


def _node_calls(_load):
    return [
        ("sample", {"now": 1000.0}, None),
        ("sample", {"now": 1001.0}, None),
        ("poll_many", {"now": 1002.0, "max_windows": 4}, None),
        ("inject", {"kind": "cpuhog", "intensity": 0.5}, None),
        ("poll_many", {"now": 1003.0}, None),
        ("clear", {}, None),
    ]


def _log_handler():
    log = DaemonLog("slave01", "tasktracker")
    log.append(1.0, "INFO", TASKTRACKER_CLASS,
               "LaunchTaskAction: task_0001_m_000000_0")
    log.append(20.0, "INFO", TASKTRACKER_CLASS,
               "Task task_0001_m_000000_0 is done.")
    return HadoopLogDaemon("slave01", log), log


def _log_calls(_log):
    return [
        ("collect", {"now": 1.0}, None),      # nothing stable yet: no rows
        ("collect", {"now": 10.0}, None),
        ("collect", {"now": 30.0}, None),
        ("stats", {}, None),                  # JSON on a binary connection
        ("collect", {"now": 31.0}, None),     # the steady state: one row
    ]


def _buffered_node_handler():
    load = SyntheticNodeLoad("node-02", seed=7)
    daemon = ClusterNodeDaemon("node-02", load, buffered=True)
    return daemon, daemon


def _buffered_node_calls(daemon):
    def buffer(*times):
        return lambda: [daemon.buffer_sample(t) for t in times]

    later = [1005.0 + i for i in range(1, 21)]
    return [
        ("poll_many", {"now": 1000.0}, buffer(1000.0)),      # priming: none
        ("poll_many", {"now": 1001.0, "max_windows": 8}, buffer(1001.0)),
        ("poll_many", {"now": 1005.0, "max_windows": 8},
         buffer(1002.0, 1003.0, 1004.0, 1005.0)),            # four windows
        ("poll_many", {"now": 1026.0, "max_windows": 8}, buffer(*later)),
        ("sample", {"now": 1027.0}, None),                   # newest of 12
        ("poll_many", {"now": 1028.0}, None),                # an empty batch
    ]


def _busy_log_handler():
    log = DaemonLog("slave01", "tasktracker")
    for task in range(14):
        attempt = f"task_0001_m_{task:06d}_0"
        log.append(1.0 + 3 * task, "INFO", TASKTRACKER_CLASS,
                   f"LaunchTaskAction: {attempt}")
        log.append(6.5 + 3 * task, "INFO", TASKTRACKER_CLASS,
                   f"Task {attempt} is done.")
    return HadoopLogDaemon("slave01", log), log


def _busy_log_calls(_log):
    # Every poll in the steady state brings five rows.
    return [("collect", {"now": float(now)}, None) for now in range(7, 52, 5)]


COUNTER_FIELDS = (
    "tx_payload", "rx_payload", "tx_wire", "rx_wire", "static_wire",
    "messages_sent", "messages_received",
)


class TestInprocCountsLikeTcp:
    """The module docstring's promise: the in-process channel says hello,
    frames and counts exactly as ``RpcClient`` against ``RpcServer``."""

    @pytest.mark.parametrize("make, calls, codec", [
        (_sadc_handler, _sadc_calls, "bin"),
        (_node_handler, _node_calls, "bin"),
        (_log_handler, _log_calls, "bin"),
        (_buffered_node_handler, _buffered_node_calls, "bin"),
        (_busy_log_handler, _busy_log_calls, "bin"),
    ])
    def test_counter_equal_field_for_field(self, make, calls, codec):
        def drive(channel, state):
            results = []
            for method, params, before in calls(state):
                if before is not None:
                    before()
                results.append(channel.call(method, **params))
            return results

        handler, state = make()
        channel = InprocChannel(handler, "svc@node")
        inproc_results = drive(channel, state)

        handler, state = make()
        with RpcServer(handler, "svc@node") as server:
            with RpcClient(*server.address) as client:
                tcp_results = drive(client, state)
                welcome, _ = decode_frame(channel._server.welcome)
                assert welcome["codec"] == codec
                assert channel.metric_names == client.metric_names
                assert channel.methods == client.methods
                for name in COUNTER_FIELDS:
                    assert getattr(channel.counter, name) == getattr(
                        client.counter, name
                    ), name
        for inproc, tcp in zip(inproc_results, tcp_results):
            if isinstance(inproc, dict):
                inproc, tcp = dict(inproc), dict(tcp)
                for result in (inproc, tcp):   # wall stamps differ by run
                    result.pop("emit_wall", None)
                    for window in result.get("windows", ()):
                        window.pop("emit_wall", None)
            assert inproc == tcp

    def test_catalog_is_counted_as_static_bytes(self):
        with_catalog = InprocChannel(_sadc_handler()[0], "svc@node")
        without = InprocChannel(ToyHandler(), "svc@node")
        assert with_catalog.metric_names == NODE_METRICS
        assert with_catalog.counter.static_wire > without.counter.static_wire + 500
        assert with_catalog.counter.dynamic_wire == 0

    def test_sample_crosses_as_one_binary_row(self):
        handler, procfs = _sadc_handler()
        channel = InprocChannel(handler, "svc@node")
        channel.call("sample", now=0.0)
        procfs.cpu.idle += 4.0
        before = channel.counter.rx_payload
        sample = channel.call("sample", now=1.0)
        # 64 doubles + two stamps + a short header; the JSON object was 3.3 kB.
        assert 8 * 66 < channel.counter.rx_payload - before < 8 * 66 + 40
        assert tuple(sample["node"]) == NODE_METRICS
        assert sample["node"]["cpu_idle_pct"] == 100.0

    def test_state_series_crosses_as_one_binary_frame(self):
        handler, _ = _log_handler()
        channel = InprocChannel(handler, "svc@node")
        assert channel.metric_names == WHITEBOX_STATES
        before = channel.counter.rx_payload
        result = channel.call("collect", now=30.0)
        # 28 rows of 8 doubles behind a 29-byte head.
        assert channel.counter.rx_payload - before == 29 + 28 * 64
        assert result["seconds"] == list(range(28))
        assert result["vectors"][5][0] == 1.0 and result["vectors"][25][0] == 0.0
        assert result["watermark"] == 20.0

    def test_response_under_another_id_is_rejected_on_both(self, monkeypatch):
        """``RpcClient.finish_call`` always checked; the channel never looked.
        Both serve through ``repro.rpc.server.Connection.answer``'s
        ``dispatch``."""
        import repro.rpc.server as server_module

        def answer_late(handler, payload, trace=None):
            response = dispatch(handler, payload, trace)
            response["id"] += 1
            return response

        monkeypatch.setattr(server_module, "dispatch", answer_late)
        channel = InprocChannel(ToyHandler(), "toy")
        with pytest.raises(ProtocolError, match="response id 2 != request id 1"):
            channel.call("echo", value=1)

        with RpcServer(ToyHandler(), "toy") as server:
            with RpcClient(*server.address) as client:
                with pytest.raises(
                    ProtocolError, match="response id 2 != request id 1"
                ):
                    client.call("echo", value=1)
                # Both counted the round trip before refusing its result.
                for name in COUNTER_FIELDS:
                    assert getattr(channel.counter, name) == getattr(
                        client.counter, name
                    ), name

    def test_a_failed_call_counts_its_request_like_a_socket(self):
        class BadHandler:
            def rpc_bad(self):
                return {1, 2, 3}

        channel = InprocChannel(BadHandler(), "bad")
        sent = channel.counter.messages_sent
        received = channel.counter.messages_received
        with pytest.raises(TypeError):
            channel.call("bad")
        assert channel.counter.messages_sent == sent + 1
        assert channel.counter.messages_received == received

    def test_the_row_is_handed_through_not_rebuilt(self, monkeypatch):
        """Sampler row -> frame -> decoded row: no 64-key dict between."""
        import numpy as np

        import repro.rpc.daemons as daemons_module
        from repro.rpc import MetricRow

        handler, procfs = _sadc_handler()
        served = []
        collect = handler._sampler.collect_vector

        def remember(now):
            served.append(collect(now))
            return served[-1]

        handler._sampler.collect_vector = remember
        windows = []
        node_window = daemons_module._node_window
        monkeypatch.setattr(
            daemons_module, "_node_window",
            lambda *args: windows.append(node_window(*args)) or windows[-1],
        )
        channel = InprocChannel(handler, "svc@node")
        channel.call("sample", now=0.0)
        procfs.cpu.idle += 4.0
        sample = channel.call("sample", now=1.0)
        assert windows[-1]["node"].row is served[-1]
        node = sample["node"]
        assert type(node) is MetricRow and node.names is channel.metric_names
        assert node.names is handler.metric_names
        assert node.row.dtype == np.float64 and node.row.base is None
        assert np.array_equal(node.row, served[-1])

    def test_frame_limit_is_resolved_when_the_channel_opens(self):
        from repro.rpc import set_max_frame_bytes

        channel = InprocChannel(ToyHandler(), "toy")
        try:
            set_max_frame_bytes(16)
            # An open channel keeps its limit; a new one takes the new one.
            assert channel.call("echo", value="x" * 64) == "x" * 64
            with pytest.raises(ProtocolError, match="frame too large"):
                InprocChannel(ToyHandler(), "toy")
        finally:
            set_max_frame_bytes(None)
