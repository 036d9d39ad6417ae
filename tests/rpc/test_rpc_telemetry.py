"""``asdf_rpc_*`` is the endpoint's ``ByteCounter``, read on scrape.

Before PR 22 every transport pushed its own idea of a call into
telemetry: the in-process channel seeded the series with its handshake
and hello, the TCP client never recorded its hello/welcome at all, and a
call that raised counted in the ``ByteCounter`` (Table 4's source) but
not in the metrics.  One number per endpoint now: the series *are* the
counter.
"""

import time

import pytest

from repro.rpc import (
    InprocChannel,
    ProtocolError,
    RemoteError,
    RpcClient,
    RpcServer,
    SadcDaemon,
)
from repro.rpc.protocol import set_max_frame_bytes
from repro.telemetry import Telemetry

from sysstat.sadc_oracle import SampledProcFS  # tests/sysstat: the per-node sampler

SERVICE = "sadc_rpcd@node-a"


class FlakyDaemon(SadcDaemon):
    """The real ``sadc`` daemon (binary sample rows) that can also fail."""

    def rpc_fail(self):
        raise RuntimeError("deliberate")

    def rpc_blob(self, size):
        return "x" * size


def make_daemon() -> FlakyDaemon:
    return FlakyDaemon("node-a", SampledProcFS())


def drive(channel) -> None:
    """The same calls on either transport, one of them a remote error."""
    channel.call("sample", now=1.0)
    channel.call("sample", now=2.0)
    with pytest.raises(RemoteError):
        channel.call("fail")
    channel.call("sample", now=3.0)


def rpc_series(telemetry: Telemetry) -> dict:
    metrics = telemetry.metrics
    return {
        (family, dict(labels).get("direction")): child.value
        for family in ("asdf_rpc_wire_bytes_total", "asdf_rpc_messages_total")
        for labels, child in metrics.iter_children(family)
    }


class TestOneNumberPerEndpoint:
    def test_inproc_and_tcp_export_the_same_series(self):
        over_inproc, over_tcp = Telemetry(), Telemetry()
        inproc = InprocChannel(make_daemon(), SERVICE, telemetry=over_inproc)
        drive(inproc)
        with RpcServer(make_daemon(), SERVICE) as server:
            with RpcClient(*server.address, telemetry=over_tcp) as client:
                drive(client)
                assert client.metric_names is inproc.metric_names
                tcp_counter = client.counter
        assert rpc_series(over_inproc) == rpc_series(over_tcp)
        # ...and both are the endpoint's own books, hello included.
        for telemetry, counter in ((over_inproc, inproc.counter),
                                   (over_tcp, tcp_counter)):
            assert rpc_series(telemetry) == {
                ("asdf_rpc_wire_bytes_total", "tx"): counter.tx_wire,
                ("asdf_rpc_wire_bytes_total", "rx"): counter.rx_wire,
                ("asdf_rpc_messages_total", "tx"): counter.messages_sent,
            }
            assert counter.messages_sent == 5  # hello + four requests
            assert counter.static_wire > 0

    def test_series_exist_from_the_handshake_on(self):
        telemetry = Telemetry()
        channel = InprocChannel(make_daemon(), SERVICE, telemetry=telemetry)
        text = telemetry.metrics.render_prometheus()
        assert (f'asdf_rpc_wire_bytes_total{{direction="tx",'
                f'service="{SERVICE}"}} {channel.counter.tx_wire}') in text
        assert (f'asdf_rpc_bytes_sent_total{{role="inproc:{SERVICE}"}} '
                f'{channel.counter.tx_payload}') in text

    def test_a_remote_error_still_counts_the_request_that_left(self):
        telemetry = Telemetry()
        channel = InprocChannel(make_daemon(), SERVICE, telemetry=telemetry)
        before = rpc_series(telemetry)
        with pytest.raises(RemoteError):
            channel.call("fail")
        after = rpc_series(telemetry)
        assert after["asdf_rpc_messages_total", "tx"] == \
            before["asdf_rpc_messages_total", "tx"] + 1
        assert after["asdf_rpc_wire_bytes_total", "tx"] > \
            before["asdf_rpc_wire_bytes_total", "tx"]
        assert after["asdf_rpc_wire_bytes_total", "rx"] > \
            before["asdf_rpc_wire_bytes_total", "rx"]  # the error came back

    def test_a_call_that_dies_on_the_way_back_counts_what_left(self):
        # The response is over the frame limit: the request was sent and
        # counted, nothing was received.  Telemetry used to miss both.
        set_max_frame_bytes(4096)
        try:
            telemetry = Telemetry()
            channel = InprocChannel(make_daemon(), SERVICE,
                                    telemetry=telemetry)
            before = rpc_series(telemetry)
            with pytest.raises(ProtocolError):
                channel.call("blob", size=10_000)
        finally:
            set_max_frame_bytes(None)
        after = rpc_series(telemetry)
        assert after["asdf_rpc_messages_total", "tx"] == \
            before["asdf_rpc_messages_total", "tx"] + 1
        assert after["asdf_rpc_wire_bytes_total", "rx"] == \
            before["asdf_rpc_wire_bytes_total", "rx"]
        assert after["asdf_rpc_wire_bytes_total", "tx"] == \
            channel.counter.tx_wire


class TestEndpointsSharingAService:
    def test_client_and_server_under_one_name_add_up(self):
        telemetry = Telemetry()
        with RpcServer(make_daemon(), SERVICE, telemetry=telemetry) as server:
            with RpcClient(*server.address, telemetry=telemetry) as client:
                for now in (1.0, 2.0, 3.0):
                    client.call("sample", now=now)
                # The server counts a response after sending it: wait
                # for the last one to reach its book (welcome + 3).
                deadline = time.monotonic() + 5.0
                while (server.counter.messages_sent < 4
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                counters = (client.counter, server.counter)
        series = rpc_series(telemetry)
        assert series == {
            ("asdf_rpc_wire_bytes_total", "tx"):
                sum(c.tx_wire for c in counters),
            ("asdf_rpc_wire_bytes_total", "rx"):
                sum(c.rx_wire for c in counters),
            ("asdf_rpc_messages_total", "tx"):
                sum(c.messages_sent for c in counters),
        }
        roles = {
            dict(labels)["role"]: child.value for labels, child in
            telemetry.metrics.iter_children("asdf_rpc_bytes_sent_total")
        }
        assert roles == {
            f"client:{SERVICE}": client.counter.tx_payload,
            f"server:{SERVICE}": server.counter.tx_payload,
        }
