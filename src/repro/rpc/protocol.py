"""Wire protocol for the ASDF collection daemons.

The paper used ZeroC's ICE to fetch statistics from per-node daemons
(``sadc_rpcd``, ``hadoop_log_rpcd``).  This substitute is a minimal
request/response protocol -- length-prefixed UTF-8 JSON over a byte
stream -- with explicit *byte accounting*, because Table 4 of the paper
reports exactly those numbers: static connection overhead and
per-iteration bandwidth per RPC type.

Framing: 4-byte big-endian payload length, then the JSON payload.
Requests carry ``{"id", "method", "params"}`` and optionally a
``"trace"`` object (cross-process trace context, see
:class:`TraceContext`); responses carry ``{"id", "result"}`` or
``{"id", "error"}`` plus the serving side's trace context when the
request carried one.  A connection starts with a hello/welcome exchange
(protocol version + advertised methods), which is what the
static-overhead column of Table 4 measures.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

PROTOCOL_VERSION = 2

#: Default maximum accepted frame payload, bytes (sanity bound against
#: garbage).  The effective limit is :func:`max_frame_bytes`, which
#: honours the ``ASDF_MAX_FRAME_BYTES`` environment variable and
#: :func:`set_max_frame_bytes` (the CLI's ``--max-frame-bytes``), so a
#: cluster deployment can tighten or relax the bound per daemon.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Runtime override installed by :func:`set_max_frame_bytes`; takes
#: precedence over the environment variable.
_max_frame_override: Optional[int] = None

_LENGTH = struct.Struct(">I")

#: Ethernet + IPv4 + TCP header bytes per segment, used to estimate the
#: on-the-wire cost of application payloads (Table 4 reports wire-level
#: bandwidth, not just payload bytes).
WIRE_HEADER_BYTES = 66
#: TCP maximum segment payload assumed for segment-count estimation.
SEGMENT_PAYLOAD_BYTES = 1448

#: Approximate wire bytes of TCP connection setup + teardown
#: (SYN, SYN/ACK, ACK + FIN, ACK, FIN, ACK), headers only.
TCP_HANDSHAKE_WIRE_BYTES = 6 * WIRE_HEADER_BYTES


class ProtocolError(Exception):
    """Malformed frame or payload."""


class RemoteError(Exception):
    """The remote handler raised; message carries the remote detail."""


def max_frame_bytes() -> int:
    """The effective frame-size limit for this process.

    Resolution order: :func:`set_max_frame_bytes` override, then the
    ``ASDF_MAX_FRAME_BYTES`` environment variable, then the baked-in
    :data:`MAX_FRAME_BYTES` default.
    """
    if _max_frame_override is not None:
        return _max_frame_override
    env = os.environ.get("ASDF_MAX_FRAME_BYTES")
    if env:
        try:
            value = int(env)
        except ValueError:
            return MAX_FRAME_BYTES
        if value > 0:
            return value
    return MAX_FRAME_BYTES


def set_max_frame_bytes(limit: Optional[int]) -> None:
    """Install (or clear with ``None``) a process-wide frame-size limit."""
    global _max_frame_override
    _max_frame_override = int(limit) if limit is not None else None


def _peer_suffix(peer: str) -> str:
    return f" (peer {peer})" if peer else ""


@lru_cache(maxsize=64)
def intern_catalog(names: Tuple[str, ...]) -> Tuple[str, ...]:
    """The process's one tuple object for a metric catalog.

    Every equal catalog maps to the tuple seen first, so "this row is
    laid out against this connection's catalog" is an identity test.
    """
    return names


@lru_cache(maxsize=64)
def _positions(names: Tuple[str, ...]) -> Dict[str, int]:
    return {name: at for at, name in enumerate(names)}


class MetricRow(Mapping):
    """One sample's metrics: a read-only mapping over a float64 row.

    ``names`` is the (interned) catalog and ``row`` the values in catalog
    order.  It reads, compares and JSON-encodes as the ``{name: value}``
    dict it stands for; codec v2 ships ``row`` as it is when ``names`` is
    the connection's catalog, and a consumer that wants the vector takes
    ``row`` instead of looking up every name.
    """

    __slots__ = ("names", "row")

    def __init__(self, names: Tuple[str, ...], row: np.ndarray) -> None:
        if row.shape != (len(names),):
            raise ValueError(
                f"row of shape {row.shape} against {len(names)} metric names"
            )
        self.names = names
        self.row = row

    def __getitem__(self, name: str) -> float:
        return float(self.row[_positions(self.names)[name]])

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def values(self) -> List[float]:  # type: ignore[override]
        return self.row.tolist()

    def items(self):  # type: ignore[override]
        return zip(self.names, self.row.tolist())


def _json_default(value: Any) -> Any:
    if isinstance(value, MetricRow):
        return dict(value.items())
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


#: ``json.dumps`` builds an encoder per call once it is given arguments.
_JSON = json.JSONEncoder(separators=(",", ":"), default=_json_default)


def frame_length(
    data: bytes, peer: str = "", limit: Optional[int] = None
) -> Optional[int]:
    """Total bytes of the frame at the head of ``data``; None if the
    length prefix itself is still incomplete.

    Raises :class:`ProtocolError` when the advertised length exceeds the
    frame limit, *before* a reader buffers the body.  Here and below
    ``peer`` names the remote end in errors, and ``limit`` is the limit a
    connection resolved when it opened (:func:`max_frame_bytes` reads the
    environment, too dear per frame) or, if None, the process's now.
    """
    if len(data) < _LENGTH.size:
        return None
    (length,) = _LENGTH.unpack_from(data)
    if limit is None:
        limit = max_frame_bytes()
    if length > limit:
        raise ProtocolError(
            f"frame length {length} exceeds maximum {limit}"
            f"{_peer_suffix(peer)}"
        )
    return _LENGTH.size + length


def frame_end(data: bytes, peer: str = "", limit: Optional[int] = None) -> int:
    """:func:`frame_length` of a frame ``data`` holds whole, or
    :class:`ProtocolError`."""
    end = frame_length(data, peer, limit)
    if end is None or len(data) < end:
        need = (
            "missing length prefix" if end is None
            else f"need {end} bytes, have {len(data)}"
        )
        raise ProtocolError(f"short frame: {need}{_peer_suffix(peer)}")
    return end


def body_length(frame_bytes: int, peer: str, limit: Optional[int]) -> int:
    """The length prefix of a frame of ``frame_bytes``, limit checked."""
    length = frame_bytes - _LENGTH.size
    if limit is None:
        limit = max_frame_bytes()
    if length > limit:
        raise ProtocolError(
            f"frame too large: {length} bytes > limit {limit}"
            f"{_peer_suffix(peer)}"
        )
    return length


def encode_frame(
    payload: Dict[str, Any], peer: str = "", limit: Optional[int] = None
) -> bytes:
    """Serialize one message to its framed wire form (JSON)."""
    body = _JSON.encode(payload).encode("utf-8")
    return _LENGTH.pack(body_length(_LENGTH.size + len(body), peer, limit)) + body


def decode_frame(
    data: bytes, peer: str = "", limit: Optional[int] = None
) -> Tuple[Dict[str, Any], int]:
    """Decode one JSON frame from the head of ``data``.

    Returns (payload, total_bytes_consumed).  Raises
    :class:`ProtocolError` on malformed input, short reads included.
    """
    end = frame_end(data, peer, limit)
    try:
        payload = json.loads(data[_LENGTH.size:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors, and so
        # is an integer literal over the interpreter's digit limit; a
        # document nested past the recursion limit raises RecursionError.
        raise ProtocolError(
            f"bad frame payload: {exc}{_peer_suffix(peer)}"
        ) from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object{_peer_suffix(peer)}"
        )
    return payload, end


def wire_bytes(application_bytes: int) -> int:
    """Estimated on-the-wire bytes for an application payload."""
    if application_bytes <= 0:
        return 0
    if application_bytes <= SEGMENT_PAYLOAD_BYTES:
        return application_bytes + WIRE_HEADER_BYTES
    segments = math.ceil(application_bytes / SEGMENT_PAYLOAD_BYTES)
    return application_bytes + segments * WIRE_HEADER_BYTES


def _new_id(nbytes: int = 8) -> str:
    """A fresh random identifier (hex).  Trace identity, not simulation
    state: cluster runs stitch traces by these ids across real
    processes, so they must be unique per process, never replayed."""
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """Cross-process trace context carried in every RPC frame.

    ``trace_id`` groups all spans of one logical operation (e.g. one
    collection round and the alarm it triggers); ``span_id`` identifies
    the current span; ``parent_id`` links to the caller's span; and
    ``origin`` names the daemon that created this context
    (``"<role>@pid<pid>"``), so a stitched timeline shows which real
    process each hop ran in.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    origin: str = ""

    @classmethod
    def new_root(cls, origin: str = "") -> "TraceContext":
        return cls(trace_id=_new_id(), span_id=_new_id(4), origin=origin)

    def child(self, origin: str = "") -> "TraceContext":
        """A child context: same trace, new span, parented to this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_new_id(4),
            parent_id=self.span_id,
            origin=origin or self.origin,
        )

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {"id": self.trace_id, "span": self.span_id}
        if self.parent_id is not None:
            wire["parent"] = self.parent_id
        if self.origin:
            wire["origin"] = self.origin
        return wire

    @classmethod
    def from_wire(cls, obj: Any) -> Optional["TraceContext"]:
        """Parse a wire trace object; ``None`` on anything malformed."""
        if not isinstance(obj, dict):
            return None
        trace_id = obj.get("id")
        span_id = obj.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        parent = obj.get("parent")
        origin = obj.get("origin")
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent if isinstance(parent, str) else None,
            origin=origin if isinstance(origin, str) else "",
        )

    def span_args(self) -> Dict[str, Any]:
        """The trace identity as span args, for tracer recording."""
        args: Dict[str, Any] = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            args["parent_id"] = self.parent_id
        if self.origin:
            args["origin"] = self.origin
        return args


def frame_trace(payload: Dict[str, Any]) -> Optional[TraceContext]:
    """Extract the trace context of a decoded frame, if any."""
    return TraceContext.from_wire(payload.get("trace"))


def make_request(
    request_id: int,
    method: str,
    params: Optional[Dict[str, Any]] = None,
    trace: Optional[TraceContext] = None,
) -> Dict[str, Any]:
    frame: Dict[str, Any] = {"id": request_id, "method": method, "params": params or {}}
    if trace is not None:
        frame["trace"] = trace.to_wire()
    return frame


def make_response(
    request_id: int, result: Any, trace: Optional[TraceContext] = None
) -> Dict[str, Any]:
    frame: Dict[str, Any] = {"id": request_id, "result": result}
    if trace is not None:
        frame["trace"] = trace.to_wire()
    return frame


def make_error(
    request_id: int, message: str, trace: Optional[TraceContext] = None
) -> Dict[str, Any]:
    frame: Dict[str, Any] = {"id": request_id, "error": message}
    if trace is not None:
        frame["trace"] = trace.to_wire()
    return frame


def handler_failure(method: str, exc: Exception) -> str:
    """The error a response carries when ``rpc_<method>`` raised ``exc``."""
    if isinstance(exc, TypeError):
        return f"bad parameters for {method}: {exc}"
    return f"{type(exc).__name__}: {exc}"


def response_result(
    response: Dict[str, Any], request_id: int, peer: str = ""
) -> Any:
    """The result a decoded response carries for request ``request_id``.

    Raises :class:`ProtocolError` when it answers another request and
    :class:`RemoteError` when the remote handler failed.
    """
    if response.get("id") != request_id:
        raise ProtocolError(
            f"response id {response.get('id')} != request id "
            f"{request_id}{_peer_suffix(peer)}"
        )
    if "error" in response:
        raise RemoteError(response["error"])
    return response.get("result")


def make_hello(
    client_name: str, codecs: Optional["list[str]"] = None
) -> Dict[str, Any]:
    """The client's opening frame.

    ``codecs`` advertises the wire codecs this client can decode, in
    preference order (codec v2 negotiation).  A v1 server ignores the
    unknown key and answers with a plain welcome, which the client reads
    as JSON-only -- cross-version pairs interoperate either way.
    """
    hello: Dict[str, Any] = {"hello": client_name, "version": PROTOCOL_VERSION}
    if codecs:
        hello["codecs"] = list(codecs)
    return hello


def make_welcome(
    service: str,
    methods: "list[str]",
    codec: Optional[str] = None,
    metrics: Optional["list[str]"] = None,
) -> Dict[str, Any]:
    """The server's answer to a hello.

    ``codec`` names the wire codec chosen for this connection and
    ``metrics`` is the interned metric-name catalog binary sample rows
    are packed against (codec v2).  Both are omitted for JSON-only
    connections, producing exactly the v1 welcome.
    """
    welcome: Dict[str, Any] = {
        "welcome": service, "version": PROTOCOL_VERSION, "methods": methods,
    }
    if codec is not None:
        welcome["codec"] = codec
        if metrics:
            welcome["metrics"] = list(metrics)
    return welcome


@dataclass
class ByteCounter:
    """Tracks application and estimated wire traffic of one endpoint."""

    tx_payload: int = 0
    rx_payload: int = 0
    tx_wire: int = 0
    rx_wire: int = 0
    #: Bytes attributable to connection setup/teardown (hello/welcome
    #: exchanges plus TCP handshake estimate).
    static_wire: int = field(default=0)
    messages_sent: int = 0
    messages_received: int = 0
    #: A server-side counter aggregates every connection-handler thread;
    #: the updates below are compound (+=) and must be serialized.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count_tx(self, payload_bytes: int, static: bool = False) -> None:
        wire = wire_bytes(payload_bytes)
        with self._lock:
            self.tx_payload += payload_bytes
            self.tx_wire += wire
            self.messages_sent += 1
            if static:
                self.static_wire += wire

    def count_rx(self, payload_bytes: int, static: bool = False) -> None:
        wire = wire_bytes(payload_bytes)
        with self._lock:
            self.rx_payload += payload_bytes
            self.rx_wire += wire
            self.messages_received += 1
            if static:
                self.static_wire += wire

    def count_round_trip(self, tx_bytes: int, rx_bytes: int) -> None:
        """``count_tx(tx_bytes)`` and ``count_rx(rx_bytes)`` under one lock."""
        tx_wire = wire_bytes(tx_bytes)
        rx_wire = wire_bytes(rx_bytes)
        with self._lock:
            self.tx_payload += tx_bytes
            self.tx_wire += tx_wire
            self.messages_sent += 1
            self.rx_payload += rx_bytes
            self.rx_wire += rx_wire
            self.messages_received += 1

    def count_handshake(self) -> None:
        with self._lock:
            self.static_wire += TCP_HANDSHAKE_WIRE_BYTES
            self.tx_wire += TCP_HANDSHAKE_WIRE_BYTES // 2
            self.rx_wire += TCP_HANDSHAKE_WIRE_BYTES // 2

    @property
    def total_wire(self) -> int:
        return self.tx_wire + self.rx_wire

    @property
    def dynamic_wire(self) -> int:
        """Wire bytes excluding connection setup/teardown."""
        return max(0, self.total_wire - self.static_wire)
