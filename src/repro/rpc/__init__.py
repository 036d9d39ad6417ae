"""RPC substrate: per-node collection daemons and their transports.

Replaces the paper's ZeroC ICE deployment.  TCP transport
(:class:`RpcServer`/:class:`RpcClient`) for online production use; the
in-process channel (:class:`InprocChannel`) for simulation, encoding
every frame identically so byte accounting matches the wire.  Every
frame may carry a :class:`TraceContext`, so one logical operation (a
collection poll and the analysis it feeds) stitches into a single
cross-process trace.
"""

from .client import RpcClient
from .codec import (
    CODEC_BINARY,
    decode_message,
    encode_request_frame,
    encode_response_frame,
    frame_length,
)
from .daemons import (
    LOG_PARSER_LAG_S,
    ClusterNodeDaemon,
    HadoopLogDaemon,
    SadcDaemon,
)
from .inproc import InprocChannel
from .poller import MultiPoller, PollOutcome
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SEGMENT_PAYLOAD_BYTES,
    TCP_HANDSHAKE_WIRE_BYTES,
    WIRE_HEADER_BYTES,
    ByteCounter,
    MetricRow,
    ProtocolError,
    RemoteError,
    SeriesRows,
    TraceContext,
    decode_frame,
    encode_frame,
    frame_trace,
    make_error,
    make_hello,
    make_request,
    make_response,
    make_welcome,
    max_frame_bytes,
    set_max_frame_bytes,
    wire_bytes,
)
from .server import RpcServer, dispatch, handler_methods

__all__ = [
    "ByteCounter",
    "CODEC_BINARY",
    "ClusterNodeDaemon",
    "HadoopLogDaemon",
    "InprocChannel",
    "LOG_PARSER_LAG_S",
    "MAX_FRAME_BYTES",
    "MetricRow",
    "MultiPoller",
    "PROTOCOL_VERSION",
    "PollOutcome",
    "ProtocolError",
    "RemoteError",
    "RpcClient",
    "RpcServer",
    "SEGMENT_PAYLOAD_BYTES",
    "SadcDaemon",
    "SeriesRows",
    "TCP_HANDSHAKE_WIRE_BYTES",
    "TraceContext",
    "WIRE_HEADER_BYTES",
    "decode_frame",
    "decode_message",
    "dispatch",
    "encode_frame",
    "encode_request_frame",
    "encode_response_frame",
    "frame_length",
    "frame_trace",
    "handler_methods",
    "make_error",
    "make_hello",
    "make_request",
    "make_response",
    "make_welcome",
    "max_frame_bytes",
    "set_max_frame_bytes",
    "wire_bytes",
]
