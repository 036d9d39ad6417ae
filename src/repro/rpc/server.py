"""Threaded TCP RPC server hosting a collection daemon handler.

A handler is any object whose ``rpc_*`` methods implement the service:
``rpc_sample(self, **params)`` is callable as method ``"sample"``.  The
server answers each connection's hello with a welcome advertising the
available methods and metric catalog, then serves requests until the
peer disconnects; a hello that does not offer binary data frames gets
no welcome, and the connection closes.

Used by the production-mode deployment (``sadc_rpcd`` /
``hadoop_log_rpcd`` per monitored node); simulation-mode experiments use
:class:`repro.rpc.inproc.InprocChannel`, whose serving end is this
module's :class:`Connection` without a socket.

When a request frame carries a trace context, the server derives a
child context (same trace_id, new span parented to the caller's),
records a serving-side span on its telemetry tracer, and echoes the
child context in the response -- this is how a poll issued by the
central analysis daemon and the sampling work done in a collection
daemon stitch into one cross-process trace.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .codec import Wire, decode_message, read_frame, recv_frame
from .protocol import (
    CODEC_BINARY,
    ByteCounter,
    ProtocolError,
    TraceContext,
    encode_frame,
    frame_trace,
    handler_failure,
    intern_catalog,
    make_error,
    make_response,
    make_welcome,
    max_frame_bytes,
)


def handler_methods(handler: Any) -> List[str]:
    """Names of the RPC methods a handler object exposes."""
    return sorted(
        name[len("rpc_"):]
        for name in dir(handler)
        if name.startswith("rpc_") and callable(getattr(handler, name))
    )


def negotiate(
    handler: Any, service: str, hello: Dict[str, Any]
) -> Dict[str, Any]:
    """The welcome that answers ``hello`` for a connection to ``handler``:
    its methods and the catalog its sample rows are laid out on
    (``metric_names``, if it has one).  A hello that does not offer binary
    data frames is refused with :class:`ProtocolError`.  Shared by
    :class:`RpcServer` and :class:`repro.rpc.inproc.InprocChannel`, so
    both transports put the same frames on the wire.
    """
    offered = hello.get("codecs")
    if not (isinstance(offered, list) and CODEC_BINARY in offered):
        raise ProtocolError(
            f"hello {hello.get('hello')!r} does not offer {CODEC_BINARY!r}"
        )
    return make_welcome(
        service, handler_methods(handler),
        getattr(handler, "metric_names", None) or (),
    )


def dispatch(handler: Any, payload: Dict[str, Any],
             trace: Optional[TraceContext] = None) -> Dict[str, Any]:
    """Route one decoded request to the handler; never raises.

    ``trace`` is the serving side's trace context (already a child of
    the request's, when the request carried one); it is echoed in the
    response frame so the caller can confirm the hop joined its trace.
    """
    request_id = payload.get("id", -1)
    method = payload.get("method")
    if not isinstance(method, str):
        return make_error(request_id, "request missing method name", trace=trace)
    target = getattr(handler, f"rpc_{method}", None)
    if target is None or not callable(target):
        return make_error(request_id, f"no such method: {method}", trace=trace)
    params = payload.get("params") or {}
    if not isinstance(params, dict):
        return make_error(request_id, "params must be an object", trace=trace)
    try:
        result = target(**params)
    except Exception as exc:  # noqa: BLE001 - reported to the caller
        return make_error(request_id, handler_failure(method, exc), trace=trace)
    return make_response(request_id, result, trace=trace)


class Connection:
    """The serving end of one connection, for :class:`RpcServer` and
    :class:`repro.rpc.inproc.InprocChannel` alike: the welcome answering
    ``hello``, its :class:`~repro.rpc.codec.Wire`, and the response frame
    to each request frame (:meth:`answer`).

    ``tracer`` gets a serving span per request, or with ``traced_only``
    per request that carries a trace.  A span times dispatch, so a
    connection that records one for every request answers none from its
    plans directly.
    """

    def __init__(self, handler: Any, service: str, hello: Dict[str, Any],
                 where: str, peer: str, limit: int, tracer: Any = None,
                 traced_only: bool = False) -> None:
        self.handler = handler
        self.service = service
        self.where = where
        self.peer = peer
        self.limit = limit
        self.tracer = tracer
        self.traced_only = traced_only
        answer = negotiate(handler, service, hello)
        self.welcome = encode_frame(answer, peer=peer, limit=limit)
        self.names = intern_catalog(tuple(answer.get("metrics", ())))
        self.wire = Wire(self.names, peer, limit, handler)
        self._planned = tracer is None or traced_only

    def answer(self, data: bytes) -> bytes:
        """The response frame to the request frame ``data``: its plan's,
        or decoded, dispatched -- joining the caller's trace if it
        carries one -- and encoded."""
        if self._planned:
            response = self.wire.answer(data)
            if response is not None:
                return response
        payload, _ = decode_message(data, self.peer, self.names, self.limit)
        incoming = frame_trace(payload)
        trace = (
            incoming.child(origin=f"{self.service}@{self.where}")
            if incoming is not None else None
        )
        started = time.perf_counter()
        reply = dispatch(self.handler, payload, trace=trace)
        if self.tracer is not None and (trace is not None or not self.traced_only):
            method = payload.get("method", "?")
            args: Dict[str, Any] = {"method": method}
            if self.peer:
                args["peer"] = self.peer
            if trace is not None:
                args.update(trace.span_args())
            self.tracer.complete(
                f"rpc.serve:{method}", "rpc", started,
                time.perf_counter() - started, track=f"rpc:{self.service}",
                **args,
            )
        return self.wire.respond(payload.get("method"), reply)


class RpcServer:
    """A TCP server bound to localhost serving one handler object.

    ``telemetry``, when given and enabled, reads the server's
    :class:`ByteCounter` on scrape (``asdf_rpc_wire_bytes_total``,
    ``asdf_rpc_messages_total``, and
    ``asdf_rpc_bytes_{sent,received}_total`` under role
    ``server:<service>``) and gets a serving-side span per request.
    """

    def __init__(self, handler: Any, service: str, port: int = 0,
                 telemetry: Any = None) -> None:
        self.handler = handler
        self.service = service
        self.counter = ByteCounter()
        self.telemetry = telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.watch_rpc(service, f"server:{service}", self.counter)
        outer = self

        class _ConnectionHandler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # noqa: D401 - socketserver API
                sock: socket.socket = self.request
                peer = "%s:%s" % self.client_address[:2]
                outer.counter.count_handshake()
                # The frame limit in force when the connection opens
                # holds for its lifetime (one lookup, not one per frame).
                limit = max_frame_bytes()
                try:
                    first = read_frame(sock, peer=peer, limit=limit)
                    if first is None:
                        return
                    hello, consumed = first
                    outer.counter.count_rx(consumed, static=True)
                    if "hello" not in hello:
                        return
                    telemetry = outer.telemetry
                    traced = (telemetry is not None and telemetry.enabled
                              and telemetry.tracer.enabled)
                    connection = Connection(
                        outer.handler, outer.service, hello, "srv", peer,
                        limit, telemetry.tracer if traced else None,
                    )
                    sock.sendall(connection.welcome)
                    outer.counter.count_tx(len(connection.welcome), static=True)
                    while True:
                        data = recv_frame(sock, peer=peer, limit=limit)
                        if data is None:
                            return
                        outer.counter.count_rx(len(data))
                        response = connection.answer(data)
                        sock.sendall(response)
                        outer.counter.count_tx(len(response))
                except (ProtocolError, ConnectionError, OSError):
                    return

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server(("127.0.0.1", port), _ConnectionHandler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=f"rpcd-{self.service}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "RpcServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
