"""Error-path tests for the RPC layer: bad frames, dead sockets, limits.

The happy path is covered by ``test_protocol``/``test_transports``; this
file exercises what the cluster deployment actually hits in anger --
truncated frames, peers vanishing mid-frame, frame-size limits, and a
client outliving a server restart.
"""

import socket
import struct
import threading
import time

import pytest

from repro.rpc import (
    ProtocolError,
    RpcClient,
    RpcServer,
    decode_frame,
    encode_frame,
    max_frame_bytes,
    set_max_frame_bytes,
)


class ToyHandler:
    def rpc_echo(self, value):
        return value


@pytest.fixture()
def frame_limit_reset():
    yield
    set_max_frame_bytes(None)


class TestFrameLimit:
    def test_default_limit(self, frame_limit_reset, monkeypatch):
        monkeypatch.delenv("ASDF_MAX_FRAME_BYTES", raising=False)
        assert max_frame_bytes() == 16 * 1024 * 1024

    def test_env_var_overrides_default(self, frame_limit_reset, monkeypatch):
        monkeypatch.setenv("ASDF_MAX_FRAME_BYTES", "4096")
        assert max_frame_bytes() == 4096

    def test_explicit_override_beats_env(self, frame_limit_reset, monkeypatch):
        monkeypatch.setenv("ASDF_MAX_FRAME_BYTES", "4096")
        set_max_frame_bytes(64)
        assert max_frame_bytes() == 64

    def test_bad_env_value_ignored(self, frame_limit_reset, monkeypatch):
        monkeypatch.setenv("ASDF_MAX_FRAME_BYTES", "not-a-number")
        assert max_frame_bytes() == 16 * 1024 * 1024

    def test_oversized_encode_rejected(self, frame_limit_reset):
        set_max_frame_bytes(32)
        with pytest.raises(ProtocolError, match="frame too large"):
            encode_frame({"blob": "x" * 100})

    def test_oversized_decode_rejected(self, frame_limit_reset):
        frame = encode_frame({"blob": "x" * 100})
        set_max_frame_bytes(32)
        with pytest.raises(ProtocolError, match="exceeds maximum"):
            decode_frame(frame)


class TestPeerLabelledErrors:
    def test_decode_error_names_the_peer(self):
        with pytest.raises(ProtocolError, match=r"peer 10\.0\.0\.7:99"):
            decode_frame(b"\x00\x00", peer="10.0.0.7:99")

    def test_oversized_error_names_the_peer(self):
        with pytest.raises(ProtocolError, match="peer far-host:1"):
            decode_frame(struct.pack(">I", 1 << 30) + b"x", peer="far-host:1")

    def test_errors_without_peer_stay_unlabelled(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"\x00\x00")
        assert "peer" not in str(excinfo.value)


def _raw_server(respond):
    """One-shot TCP server running ``respond(conn)`` in a thread."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def accept():
        conn, _addr = listener.accept()
        try:
            respond(conn)
        finally:
            conn.close()
            listener.close()

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    return listener.getsockname()


class TestDeadSockets:
    def test_close_before_welcome(self):
        def respond(conn):
            conn.recv(4096)  # swallow the hello, say nothing

        host, port = _raw_server(respond)
        with pytest.raises(ProtocolError, match="closed before frame"):
            RpcClient(host, port, timeout=5.0)

    def test_disconnect_mid_frame(self):
        def respond(conn):
            conn.recv(4096)
            welcome = encode_frame(
                {"welcome": "toy", "version": 1, "methods": ["echo"]}
            )
            conn.sendall(welcome)
            conn.recv(4096)  # the request
            # Declare a 1000-byte frame but send only a sliver of it.
            conn.sendall(struct.pack(">I", 1000) + b'{"id"')

        host, port = _raw_server(respond)
        client = RpcClient(host, port, timeout=5.0)
        with pytest.raises(ProtocolError, match="closed mid-frame"):
            client.call("echo", value=1)
        client.close()

    def test_mid_frame_error_names_the_peer(self):
        def respond(conn):
            conn.recv(4096)

        host, port = _raw_server(respond)
        with pytest.raises(ProtocolError, match=f"{host}:{port}"):
            RpcClient(host, port, timeout=5.0)


class TestOversizedLengthPrefix:
    """A garbage length is refused when the prefix arrives, not after
    buffering the body the peer may never send."""

    HUGE = struct.pack(">I", 0x7FFFFFFF)

    def test_client_rejects_it_before_reading_a_body(self):
        release = threading.Event()

        def respond(conn):
            conn.recv(4096)  # the hello
            conn.sendall(self.HUGE)
            release.wait(20.0)  # keep the connection open, send no body

        host, port = _raw_server(respond)
        started = time.monotonic()
        try:
            with pytest.raises(
                ProtocolError,
                match=rf"exceeds maximum \d+ \(peer {host}:{port}\)",
            ):
                RpcClient(host, port, timeout=15.0)
        finally:
            release.set()
        assert time.monotonic() - started < 5.0

    def test_server_rejects_it_before_reading_a_body(self):
        with RpcServer(ToyHandler(), "toy") as server:
            with socket.create_connection(server.address, timeout=15.0) as sock:
                sock.sendall(self.HUGE)
                started = time.monotonic()
                # The handler drops the connection at once; before, it
                # sat in recv() until this side gave up.
                assert sock.recv(16) == b""
                assert time.monotonic() - started < 5.0
            # The server still serves.
            with RpcClient(*server.address) as client:
                assert client.call("echo", value=1) == 1

    def test_read_frame_names_the_peer(self):
        from repro.rpc.codec import read_frame

        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(self.HUGE)
            ours.settimeout(15.0)
            with pytest.raises(
                ProtocolError, match=r"exceeds maximum 64 \(peer far:1\)"
            ):
                read_frame(ours, peer="far:1", limit=64)

    def test_read_frame_eof_before_and_inside_a_frame(self):
        from repro.rpc.codec import read_frame

        for sent, outcome in ((b"", None), (b"\x00\x00", "mid-frame"),
                              (struct.pack(">I", 10) + b"{}", "mid-frame")):
            ours, theirs = socket.socketpair()
            with ours:
                with theirs:
                    theirs.sendall(sent)
                if outcome is None:
                    assert read_frame(ours) is None
                else:
                    with pytest.raises(ProtocolError, match=outcome):
                        read_frame(ours)
