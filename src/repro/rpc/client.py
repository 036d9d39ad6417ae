"""TCP RPC client used by the fpt-core collection modules.

One client per monitored daemon, mirroring the paper's deployment: the
ASDF control node holds a connection to every slave's ``sadc_rpcd`` and
``hadoop_log_rpcd``.  All traffic is byte-counted so the Table 4
bandwidth reproduction can read the numbers straight off the client.

A client lives as long as its connection: the central analysis daemon
reconnects to a respawned collection daemon by building a fresh client.
Cluster mode adds *trace propagation* (``call(..., trace=ctx)`` stamps
the request frame with the caller's
:class:`~repro.rpc.protocol.TraceContext` and records a client-side
span) and *peer-labelled* protocol errors, so a malformed frame is
attributable to a concrete remote address in cluster logs.

The welcome's metric catalog builds the connection's
:class:`~repro.rpc.codec.Wire`: binary frames for the data calls, JSON
for the rest.  :meth:`begin_call`
sends a request and :meth:`finish_call` decodes its response, so the
selectors-based :class:`~repro.rpc.poller.MultiPoller` can keep one
request in flight to every node; :meth:`call` is the two in a row.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional

from .codec import Wire, recv_frame
from .protocol import (
    ByteCounter,
    ProtocolError,
    TraceContext,
    decode_frame,
    encode_frame,
    intern_catalog,
    make_hello,
    max_frame_bytes,
    request_ids,
)


class _PendingCall:
    """One request in flight: everything :meth:`finish_call` needs."""

    __slots__ = ("request_id", "method", "trace", "started")

    def __init__(self, request_id: int, method: str,
                 trace: Optional[TraceContext], started: float) -> None:
        self.request_id = request_id
        self.method = method
        self.trace = trace
        self.started = started


class RpcClient:
    """Synchronous request/response client over one TCP connection."""

    def __init__(self, host: str, port: int, client_name: str = "asdf",
                 telemetry: Any = None, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.client_name = client_name
        self.telemetry = telemetry
        self.timeout = timeout
        self.counter = ByteCounter()
        self._ids = request_ids()
        self._sock: Optional[socket.socket] = None
        self._connect()
        if telemetry is not None and telemetry.enabled:
            # Read on scrape.
            telemetry.watch_rpc(
                self.service, f"client:{self.service}", self.counter
            )

    @property
    def peer(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def sock(self) -> Optional[socket.socket]:
        """The underlying socket (for selector registration)."""
        return self._sock

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self.counter.count_handshake()
        # The frame limit in force when the connection opens holds for
        # its lifetime (one lookup, not one per frame).
        self.frame_limit: int = max_frame_bytes()
        hello = encode_frame(
            make_hello(self.client_name), peer=self.peer, limit=self.frame_limit
        )
        self._sock.sendall(hello)
        self.counter.count_tx(len(hello), static=True)
        data = self._recv()
        welcome, _ = decode_frame(data, self.peer, self.frame_limit)
        self.counter.count_rx(len(data), static=True)
        if "welcome" not in welcome:
            raise ProtocolError(f"expected welcome, got {welcome!r} (peer {self.peer})")
        self.service: str = welcome["welcome"]
        self.methods: List[str] = list(welcome.get("methods", []))
        self.metric_names = intern_catalog(tuple(welcome.get("metrics") or ()))
        self._wire = Wire(self.metric_names, self.peer, self.frame_limit)

    def _recv(self) -> bytes:
        if self._sock is None:
            raise ProtocolError(f"client not connected (peer {self.peer})")
        data = recv_frame(self._sock, peer=self.peer, limit=self.frame_limit)
        if data is None:
            raise ProtocolError(
                f"connection closed before frame (peer {self.peer})"
            )
        return data

    def begin_call(self, method: str, trace: Optional[TraceContext] = None,
                   **params: Any) -> _PendingCall:
        """Encode + send one request; the response is *not* read.

        Returns the pending handle :meth:`finish_call` consumes.  Used
        directly by the pipelined poller; :meth:`call` wraps it for the
        blocking single-call case.
        """
        if self._sock is None:
            raise ProtocolError(f"client is closed (peer {self.peer})")
        request_id = next(self._ids)
        frame = self._wire.request(
            request_id, method, params,
            trace.to_wire() if trace is not None else None,
        )
        started = time.perf_counter()
        self._sock.sendall(frame)
        self.counter.count_tx(len(frame))
        return _PendingCall(request_id, method, trace, started)

    def finish_call(self, pending: _PendingCall, data: bytes) -> Any:
        """Account + decode one whole response frame; returns the result.

        Raises :class:`RemoteError` when the response carries a remote
        error, :class:`ProtocolError` on a malformed frame or a
        request-id mismatch.
        """
        duration = time.perf_counter() - pending.started
        self.counter.count_rx(len(data))
        telemetry = self.telemetry
        if (telemetry is not None and telemetry.enabled
                and telemetry.tracer.enabled):
            args: Dict[str, Any] = {"method": pending.method, "peer": self.peer}
            if pending.trace is not None:
                args.update(pending.trace.span_args())
            telemetry.tracer.complete(
                f"rpc.call:{pending.method}", "rpc", pending.started,
                duration, track=f"rpc:{self.service}", **args,
            )
        return self._wire.result(pending.method, data, pending.request_id)

    def call(self, method: str, trace: Optional[TraceContext] = None,
             **params: Any) -> Any:
        """Invoke ``method`` on the remote handler and return its result.

        ``trace``, when given, is carried in the request frame so the
        serving daemon's span lands in the same cross-process trace; a
        client-side span covering the full round-trip is recorded on
        this client's telemetry tracer.
        """
        pending = self.begin_call(method, trace=trace, **params)
        return self.finish_call(pending, self._recv())

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None

    def __enter__(self) -> "RpcClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
