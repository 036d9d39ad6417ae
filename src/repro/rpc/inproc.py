"""In-process RPC channel: same wire format, no sockets.

Simulated experiments collect from hundreds of virtual daemons per run;
real TCP round-trips would add nothing but wall-clock time.  The
in-process channel still *negotiates, encodes and decodes every frame*
exactly as :class:`RpcClient` and :class:`RpcServer` do (the hello
offers ``["bin", "json"]``; a handler with an interned ``metric_names``
catalog answers with codec v2 and ships each sample as one f64 row, any
other handler stays on JSON) and counts bytes identically to the TCP
path, so bandwidth measurements (Table 4) are the same regardless of
transport -- only the kernel is skipped.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, List, Optional

from .codec import (
    CODEC_BINARY,
    CODEC_JSON,
    decode_message,
    encode_request_frame,
    encode_response_frame,
    welcome_codec,
)
from .protocol import (
    ByteCounter,
    TraceContext,
    decode_frame,
    encode_frame,
    frame_trace,
    make_hello,
    max_frame_bytes,
    response_result,
)
from .server import dispatch, negotiate


class InprocChannel:
    """Client-side facade calling a handler object through full codec.

    ``telemetry``, if given and enabled, reads this channel's
    :class:`ByteCounter` on scrape -- the numbers Table 4 aggregates,
    surfaced as the ``asdf_rpc_*`` metrics under ``service`` -- and
    gets a serving span for every traced call.
    """

    def __init__(self, handler: Any, service: str, client_name: str = "asdf",
                 telemetry: Any = None) -> None:
        self.handler = handler
        self.service = service
        self.counter = ByteCounter()
        #: Where a traced call's serving span goes, if anywhere.
        self._tracer = None
        if telemetry is not None and telemetry.enabled:
            telemetry.watch_rpc(service, f"inproc:{service}", self.counter)
            if telemetry.tracer.enabled:
                self._tracer = telemetry.tracer
        self._ids = itertools.count(1)
        # The frame limit in force when the channel opens holds for its
        # lifetime, as on a TCP connection.
        self._limit = limit = max_frame_bytes()
        # Perform the same hello/welcome exchange as the TCP transport --
        # RpcClient's offer, RpcServer's answer -- so static overhead is
        # accounted identically and a handler with an interned metric
        # catalog gets binary sample rows here too.
        self.counter.count_handshake()
        hello_frame = encode_frame(
            make_hello(client_name, codecs=[CODEC_BINARY, CODEC_JSON]),
            limit=limit,
        )
        self.counter.count_tx(len(hello_frame), static=True)
        hello, _ = decode_frame(hello_frame, limit=limit)
        welcome_frame = encode_frame(
            negotiate(handler, service, hello), limit=limit
        )
        welcome, consumed = decode_frame(welcome_frame, limit=limit)
        self.counter.count_rx(consumed, static=True)
        self.methods: List[str] = list(welcome.get("methods", []))
        # Both ends of the channel live here, so the codec and catalog
        # the client reads off the welcome are the server's too.
        self.codec, self.metric_names = welcome_codec(welcome)

    def call(self, method: str, trace: Optional[TraceContext] = None,
             **params: Any) -> Any:
        limit = self._limit
        request_id = next(self._ids)
        frame = encode_request_frame(
            request_id, method, params,
            trace.to_wire() if trace is not None else None,
            self.codec, "", limit,
        )
        try:
            request, _ = decode_message(frame, "", (), limit)
            # Only a traced call pays for a serving span and its clock reads.
            serve_trace = None
            if "trace" in request:
                incoming = frame_trace(request)
                if incoming is not None:
                    serve_trace = incoming.child(origin=f"{self.service}@inproc")
                    started = time.perf_counter()
            response_frame = encode_response_frame(
                dispatch(self.handler, request, serve_trace),
                request.get("method"), self.metric_names, self.codec,
                "", limit,
            )
            if serve_trace is not None:
                duration = time.perf_counter() - started
            response, consumed = decode_message(
                response_frame, "", self.metric_names, limit
            )
        except BaseException:
            # The request left, as on a socket, whatever became of it.
            self.counter.count_tx(len(frame))
            raise
        self.counter.count_round_trip(len(frame), consumed)
        if serve_trace is not None and self._tracer is not None:
            self._tracer.complete(
                f"rpc.serve:{method}", "rpc", started, duration,
                track=f"rpc:{self.service}", method=method,
                **serve_trace.span_args(),
            )
        return response_result(response, request_id)

    def close(self) -> None:
        """No-op, for interface parity with :class:`RpcClient`."""
