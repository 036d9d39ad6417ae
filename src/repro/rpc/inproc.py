"""In-process RPC channel: same wire format, no sockets.

Simulated experiments collect from hundreds of virtual daemons per run;
real TCP round-trips would add nothing but wall-clock time.  The
in-process channel still *negotiates, encodes and decodes every frame*
exactly as :class:`RpcClient` and :class:`RpcServer` do -- its serving
end is the server's :class:`~repro.rpc.server.Connection` -- and counts
bytes identically, so Table 4 is the same on either transport.

On a binary channel the serving end compiles one call plan per binary
method against the handler (:mod:`repro.rpc.codec`) and the channel
shares it, so an untraced ``sample`` / ``collect`` / ``poll_many`` call
is one plan: pack the request, unpack it, call the handler, pack the
response, unpack it.  Anything else goes encode -> decode -> dispatch ->
encode -> decode.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional

from .codec import (
    CODEC_BINARY,
    CODEC_JSON,
    decode_message,
    encode_request_frame,
    welcome_codec,
)
from .protocol import (
    ByteCounter,
    TraceContext,
    decode_frame,
    encode_frame,
    make_hello,
    max_frame_bytes,
    response_result,
)
from .server import Connection


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
        # The serving end is RpcServer's; only a traced call records a
        # serving span.
        self._server = Connection(
            handler, service, hello, "inproc", "", limit, self._tracer,
            traced_only=True,
        )
        welcome, consumed = decode_frame(self._server.welcome, limit=limit)
        self.counter.count_rx(consumed, static=True)
        self.methods: List[str] = list(welcome.get("methods", []))
        # Both ends of the channel live here, so the codec, catalog and
        # plans the client reads off the welcome are the server's too.
        self.codec, self.metric_names = welcome_codec(welcome)
        self._plans = self._server.plans

    def call(self, method: str, trace: Optional[TraceContext] = None,
             **params: Any) -> Any:
        request_id = next(self._ids)
        plan = self._plans.get(method)
        frame = None
        if plan is not None and trace is None:
            frame = plan.request(request_id, params)
        # A frame the plan packed is the plan's to answer.
        answer = plan.answer if frame is not None else self._server.answer
        if frame is None:
            frame = encode_request_frame(
                request_id, method, params,
                trace.to_wire() if trace is not None else None,
                self.codec, "", self._limit,
            )
        try:
            response = answer(frame)
        except BaseException:
            # The request left, as on a socket, whatever became of it.
            self.counter.count_tx(len(frame))
            raise
        # A frame the server end encoded always decodes; what it carries
        # is checked on the way out: the request id, a remote error.
        self.counter.count_round_trip(len(frame), len(response))
        if plan is not None:
            return plan.result(response, request_id)
        payload, _ = decode_message(response, "", self.metric_names, self._limit)
        return response_result(payload, request_id)

    def close(self) -> None:
        """No-op, for interface parity with :class:`RpcClient`."""
