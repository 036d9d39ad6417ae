"""Binary codec v2: struct-packed frames for the hot poll path.

The v1 wire format serializes every message as JSON, which makes the
per-iteration bandwidth of Table 4 dominated by repeating the 64 metric
*names* in every single sample.  Codec v2 interns the metric-name
catalog once, at connection setup: the server's welcome carries the
ordered name list, and every subsequent sample frame packs only the
float *rows* (IEEE-754 doubles, big-endian) plus a tiny fixed header.

Framing is unchanged -- 4-byte big-endian payload length -- so both
codecs share the socket read loop and the byte accounting.  Within a
frame, the first payload byte discriminates: JSON payloads always start
with ``{`` (0x7B); binary payloads start with :data:`MAGIC` (0xA5).
Decoding is *transparent*: :func:`decode_message` returns exactly the
dict shape the JSON codec would have produced, so dispatch, tracing and
error handling upstack are codec-blind.

Negotiation: a v2 client advertises ``codecs: ["bin", "json"]`` in its
hello; a v2 server answers with the chosen ``codec`` plus the interned
``metrics`` list in its welcome.  A v1 peer ignores the unknown fields
(or never sends them), so either side silently falls back to JSON --
cross-version deployments keep working during a rolling upgrade.

Binary message layouts (all big-endian):

.. code-block:: text

   request   A5 01 <id:u32> <flags:u8> <method:u8>
             [trace] [now:f64] [max_windows:u16]
   response  A5 02 <id:u32> <flags:u8>
             [trace] <name_len:u8> <node_name> <n_windows:u16>
             n_windows x (<timestamp:f64> <emit_wall:f64> <row: n x f64>)
   error     A5 03 <id:u32> <flags:u8> [trace] <msg_len:u16> <message>
   series    A5 04 <id:u32> <flags:u8> <watermark:f64> <first:i64>
             <n_rows:u16> n_rows x (<row: n x f64>) [trace]

   trace     <trace_id:8s> <span_id:4s> [parent_id:4s]
             <origin_len:u8> <origin>

A *series* is the ``collect`` result of ``hadoop_log_rpcd``: ``seconds``
(``first``, ``first + 1``, ...), one ``vectors`` row per second against
the interned catalog, and ``watermark``.  Everything before the rows has
one fixed layout, so a frame is packed and unpacked by one precompiled
``Struct`` per row count.

Anything a binary frame cannot represent (extra params, a node dict
whose keys differ from the interned catalog, a result or window with
keys besides the ones laid out above, seconds with a gap, a ragged or
non-numeric row, non-hex trace ids) falls
back to a JSON frame on the same connection -- per-message, not
per-connection -- so correctness never depends on the fast path.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain
from typing import Any, Dict, Optional, Sequence, Tuple

from .protocol import (
    ProtocolError,
    _LENGTH,
    _peer_suffix,
    decode_frame,
    encode_frame,
    make_request,
    max_frame_bytes,
)

__all__ = [
    "CODEC_BINARY",
    "CODEC_JSON",
    "MAGIC",
    "BINARY_METHOD_IDS",
    "decode_message",
    "encode_request_frame",
    "encode_response_frame",
    "frame_length",
    "is_binary_payload",
    "welcome_codec",
]

#: Codec names carried in hello/welcome negotiation.
CODEC_JSON = "json"
CODEC_BINARY = "bin"

#: First payload byte of every binary message (JSON objects start with
#: ``{`` = 0x7B, so one byte discriminates).
MAGIC = 0xA5

_KIND_REQUEST = 1
_KIND_RESPONSE = 2
_KIND_ERROR = 3
_KIND_SERIES = 4

#: Methods with a binary request encoding.  Only the hot poll path is
#: worth packing; everything else (inject/clear/info) stays JSON.
BINARY_METHOD_IDS: Dict[str, int] = {"sample": 1, "poll_many": 2, "collect": 3}
_METHOD_BY_ID = {v: k for k, v in BINARY_METHOD_IDS.items()}

#: Request param keys a binary frame can carry.
_REQUEST_PARAMS = {"now", "max_windows"}

#: Keys of a sample window / a batch result the binary layout carries.
#: A dict with any other key goes out as a JSON frame.
_WINDOW_KEYS = frozenset({"timestamp", "emit_wall", "node_name", "node"})
_BATCH_KEYS = frozenset({"node_name", "windows"})
_SERIES_KEYS = frozenset({"seconds", "vectors", "watermark"})

_HEAD = struct.Struct(">BBIB")  # magic, kind, request_id, flags
_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")
_U8 = struct.Struct(">B")


@lru_cache(maxsize=32)
def _series_struct(values: int) -> struct.Struct:
    """A series message with ``values`` row values, up to its trace:
    head, watermark, first second, row count, rows."""
    return struct.Struct(f">BBIBdqH{values}d")


#: Offset of the row count in a series message.
_SERIES_ROWS_AT = _series_struct(0).size - _U16.size

# flags, request
_RQ_TRACE = 0x01
_RQ_NOW = 0x02
_RQ_MAXW = 0x04
# flags, response
_RS_TRACE = 0x01
_RS_SINGLE = 0x02  # result is one bare sample dict (or None), not a batch
_RS_NONE = 0x04    # with _RS_SINGLE: the priming-call None result
# flags, trace block
_TR_PARENT = 0x01


def welcome_codec(welcome: Dict[str, Any]) -> Tuple[str, Tuple[str, ...]]:
    """The codec and interned metric catalog a welcome pins for its
    connection: ``("bin", names)`` or, for a v1 welcome, ``("json", ())``."""
    if welcome.get("codec") == CODEC_BINARY:
        return CODEC_BINARY, tuple(welcome.get("metrics") or ())
    return CODEC_JSON, ()


def is_binary_payload(body: bytes) -> bool:
    """Whether a frame payload is codec-v2 binary (vs JSON)."""
    return bool(body) and body[0] == MAGIC


def frame_length(
    data: bytes, peer: str = "", limit: Optional[int] = None
) -> Optional[int]:
    """Total bytes of the frame at the head of ``data``; None if the
    length prefix itself is still incomplete.

    Raises :class:`ProtocolError` when the advertised length exceeds the
    frame limit -- the connection is unrecoverable at that point, which
    is exactly what an incremental reader needs to know *before* it
    buffers an attacker-sized body.  ``limit`` is the connection's
    resolved limit (see :func:`repro.rpc.protocol.encode_frame`), here
    and in every function below that takes one.
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


# -- trace block --------------------------------------------------------------

def _pack_trace(trace_wire: Optional[Dict[str, Any]]) -> Optional[bytes]:
    """Pack a wire trace object; None when it doesn't fit the binary
    layout (ids must be the 16/8 hex chars ``TraceContext`` mints)."""
    if trace_wire is None:
        return b""
    try:
        trace_id = bytes.fromhex(trace_wire["id"])
        span_id = bytes.fromhex(trace_wire["span"])
        parent = trace_wire.get("parent")
        parent_id = bytes.fromhex(parent) if parent is not None else None
    except (KeyError, TypeError, ValueError):
        return None
    if len(trace_id) != 8 or len(span_id) != 4:
        return None
    if parent_id is not None and len(parent_id) != 4:
        return None
    origin = str(trace_wire.get("origin", "")).encode("utf-8")
    if len(origin) > 255:
        return None
    flags = _TR_PARENT if parent_id is not None else 0
    parts = [_U8.pack(flags), trace_id, span_id]
    if parent_id is not None:
        parts.append(parent_id)
    parts.append(_U8.pack(len(origin)))
    parts.append(origin)
    return b"".join(parts)


class _Reader:
    """Bounds-checked cursor over one binary payload."""

    __slots__ = ("data", "pos", "peer")

    def __init__(self, data: bytes, peer: str, pos: int = 0) -> None:
        self.data = data
        self.pos = pos
        self.peer = peer

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ProtocolError(
                f"truncated binary frame: need {end} bytes, have "
                f"{len(self.data)}{_peer_suffix(self.peer)}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end  # fpt: noqa[FPT401] -- per-frame cursor, confined to the one thread decoding this payload
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"binary frame has {len(self.data) - self.pos} trailing "
                f"bytes{_peer_suffix(self.peer)}"
            )


def _unpack_trace(reader: _Reader) -> Dict[str, Any]:
    flags = reader.u8()
    wire: Dict[str, Any] = {
        "id": reader.take(8).hex(),
        "span": reader.take(4).hex(),
    }
    if flags & _TR_PARENT:
        wire["parent"] = reader.take(4).hex()
    origin_len = reader.u8()
    if origin_len:
        wire["origin"] = reader.take(origin_len).decode("utf-8", "replace")
    return wire


# -- encoding -----------------------------------------------------------------

def _frame(body: bytes, peer: str = "", limit: Optional[int] = None) -> bytes:
    if limit is None:
        limit = max_frame_bytes()
    if len(body) > limit:
        raise ProtocolError(
            f"frame too large: {len(body)} bytes > limit {limit}"
            f"{_peer_suffix(peer)}"
        )
    return _LENGTH.pack(len(body)) + body


def encode_request_frame(
    request_id: int,
    method: str,
    params: Optional[Dict[str, Any]],
    trace_wire: Optional[Dict[str, Any]],
    codec: str,
    peer: str = "",
    limit: Optional[int] = None,
) -> bytes:
    """Encode one request in the connection's negotiated codec.

    Binary when the method and params fit the packed layout; JSON
    otherwise (including always under ``codec="json"``).
    """
    params = params or {}
    if codec == CODEC_BINARY and method in BINARY_METHOD_IDS:
        if set(params) <= _REQUEST_PARAMS:
            packed_trace = _pack_trace(trace_wire)
            if packed_trace is not None:
                flags = 0
                tail = []
                if packed_trace:
                    flags |= _RQ_TRACE
                    tail.append(packed_trace)
                now = params.get("now")
                if now is not None:
                    flags |= _RQ_NOW
                    tail.append(_F64.pack(float(now)))
                maxw = params.get("max_windows")
                if maxw is not None:
                    flags |= _RQ_MAXW
                    tail.append(_U16.pack(min(0xFFFF, max(0, int(maxw)))))
                head = _HEAD.pack(
                    MAGIC, _KIND_REQUEST, request_id & 0xFFFFFFFF, flags
                )
                body = head + _U8.pack(BINARY_METHOD_IDS[method]) + b"".join(tail)
                return _frame(body, peer=peer, limit=limit)
    frame: Dict[str, Any] = make_request(request_id, method, params)
    if trace_wire is not None:
        frame["trace"] = trace_wire
    return encode_frame(frame, peer=peer, limit=limit)


def _pack_windows(
    windows: Sequence[Dict[str, Any]], metric_names: Sequence[str]
) -> Optional[bytes]:
    """Pack sample windows as float rows; None if any window doesn't
    carry exactly the interned catalog, or carries more than a row."""
    catalog = list(metric_names)
    if not catalog:
        return None
    parts = []
    for window in windows:
        if not (isinstance(window, dict) and window.keys() <= _WINDOW_KEYS):
            return None
        node = window.get("node")
        if not isinstance(node, dict) or len(node) != len(catalog):
            return None
        try:
            row = [float(node[name]) for name in catalog]
            parts.append(_F64.pack(float(window.get("timestamp", 0.0))))
            parts.append(_F64.pack(float(window.get("emit_wall", 0.0))))
        except (KeyError, TypeError, ValueError):
            return None
        parts.append(struct.pack(f">{len(row)}d", *row))
    return b"".join(parts)


def encode_response_frame(
    payload: Dict[str, Any],
    method: Optional[str],
    metric_names: Sequence[str],
    codec: str,
    peer: str = "",
    limit: Optional[int] = None,
) -> bytes:
    """Encode one response/error in the connection's negotiated codec.

    ``payload`` is the dict :func:`repro.rpc.server.dispatch` produced;
    ``method`` is the request's method name (binary packing applies only
    to the sample-shaped results of :data:`BINARY_METHOD_IDS`).
    """
    if codec == CODEC_BINARY:
        packed_trace = _pack_trace(payload.get("trace"))
        if packed_trace is not None:
            if "error" in payload:
                message = str(payload["error"]).encode("utf-8")
                if len(message) <= 0xFFFF:
                    flags = _RS_TRACE if packed_trace else 0
                    body = (
                        _HEAD.pack(
                            MAGIC, _KIND_ERROR,
                            int(payload.get("id", 0)) & 0xFFFFFFFF, flags,
                        )
                        + packed_trace
                        + _U16.pack(len(message)) + message
                    )
                    return _frame(body, peer=peer, limit=limit)
            elif method in BINARY_METHOD_IDS:
                body = _pack_result(payload, packed_trace, metric_names)
                if body is not None:
                    return _frame(body, peer=peer, limit=limit)
    return encode_frame(payload, peer=peer, limit=limit)


def _pack_series(
    payload: Dict[str, Any], packed_trace: bytes, width: int
) -> Optional[bytes]:
    """Pack a ``collect`` result; None unless it is exactly consecutive
    integer ``seconds``, as many ``vectors`` of ``width`` numbers each,
    and a ``watermark``."""
    result = payload["result"]
    if result.keys() != _SERIES_KEYS:
        return None
    seconds, vectors = result["seconds"], result["vectors"]
    try:
        rows = len(seconds)
        first = seconds[0] if rows else 0
        if (rows != len(vectors) or rows > 0xFFFF
                or seconds != list(range(first, first + rows))
                or (rows and set(map(len, vectors)) != {width})):
            return None
        return _series_struct(rows * width).pack(
            MAGIC, _KIND_SERIES, int(payload.get("id", 0)) & 0xFFFFFFFF,
            _RS_TRACE if packed_trace else 0,
            result["watermark"], first, rows,
            *chain.from_iterable(vectors),
        ) + packed_trace
    except (struct.error, TypeError, OverflowError):
        return None


def _pack_result(
    payload: Dict[str, Any], packed_trace: bytes,
    metric_names: Sequence[str],
) -> Optional[bytes]:
    result = payload.get("result")
    flags = _RS_TRACE if packed_trace else 0
    if result is None:
        flags |= _RS_SINGLE | _RS_NONE
        windows: Sequence[Dict[str, Any]] = ()
        node_name = ""
    elif isinstance(result, dict) and "windows" in result:
        windows = result["windows"]
        if not (isinstance(windows, (list, tuple))
                and result.keys() <= _BATCH_KEYS):
            return None
        node_name = str(result.get("node_name", ""))
    elif isinstance(result, dict) and "node" in result:
        flags |= _RS_SINGLE
        windows = (result,)
        node_name = str(result.get("node_name", ""))
    elif isinstance(result, dict) and "vectors" in result:
        return _pack_series(payload, packed_trace, len(metric_names))
    else:
        return None
    name = node_name.encode("utf-8")
    if len(name) > 255 or len(windows) > 0xFFFF:
        return None
    packed = _pack_windows(windows, metric_names)
    if packed is None and windows:
        return None
    return (
        _HEAD.pack(MAGIC, _KIND_RESPONSE,
                   int(payload.get("id", 0)) & 0xFFFFFFFF, flags)
        + packed_trace
        + _U8.pack(len(name)) + name
        + _U16.pack(len(windows))
        + (packed or b"")
    )


# -- decoding -----------------------------------------------------------------

def _unpack_series(body: bytes, peer: str, width: int) -> Dict[str, Any]:
    try:
        (rows,) = _U16.unpack_from(body, _SERIES_ROWS_AT)
        layout = _series_struct(rows * width)
        _, _, request_id, flags, watermark, first, _, *values = (
            layout.unpack_from(body)
        )
    except struct.error:
        raise ProtocolError(
            f"truncated binary frame: series of {len(body)} bytes"
            f"{_peer_suffix(peer)}"
        ) from None
    if rows and not width:
        raise ProtocolError(
            f"binary series frame but no interned metric catalog "
            f"negotiated{_peer_suffix(peer)}"
        )
    payload: Dict[str, Any] = {"id": request_id}
    if flags & _RS_TRACE or len(body) != layout.size:
        reader = _Reader(body, peer, layout.size)
        if flags & _RS_TRACE:
            payload["trace"] = _unpack_trace(reader)
        reader.done()
    payload["result"] = {
        "seconds": list(range(first, first + rows)),
        "vectors": [
            values[at:at + width] for at in range(0, len(values), width)
        ],
        "watermark": watermark,
    }
    return payload


def decode_message(
    data: bytes, peer: str = "", metric_names: Sequence[str] = (),
    limit: Optional[int] = None,
) -> Tuple[Dict[str, Any], int]:
    """Decode one frame (either codec) from the head of ``data``.

    Returns ``(payload, consumed)`` with the payload in the JSON dict
    shape regardless of wire codec; raises :class:`ProtocolError` on
    truncated, oversized or garbage input, labelled with ``peer``.
    """
    total = frame_length(data, peer=peer, limit=limit)
    if total is None or len(data) < total:
        raise ProtocolError(
            f"short frame: need {total or _LENGTH.size} bytes, have "
            f"{len(data)}{_peer_suffix(peer)}"
        )
    body = data[_LENGTH.size:total]
    if not is_binary_payload(body):
        return decode_frame(data[:total], peer=peer, limit=limit)
    return _decode_binary(body, peer, metric_names), total


def _decode_binary(
    body: bytes, peer: str, metric_names: Sequence[str]
) -> Dict[str, Any]:
    reader = _Reader(body, peer)
    magic, kind, request_id, flags = _HEAD.unpack(reader.take(_HEAD.size))
    if kind == _KIND_REQUEST:
        method_id = reader.u8()
        method = _METHOD_BY_ID.get(method_id)
        if method is None:
            raise ProtocolError(
                f"unknown binary method id {method_id}{_peer_suffix(peer)}"
            )
        payload: Dict[str, Any] = {
            "id": request_id, "method": method, "params": {},
        }
        if flags & _RQ_TRACE:
            payload["trace"] = _unpack_trace(reader)
        if flags & _RQ_NOW:
            payload["params"]["now"] = reader.f64()
        if flags & _RQ_MAXW:
            payload["params"]["max_windows"] = reader.u16()
        reader.done()
        return payload
    if kind == _KIND_ERROR:
        payload = {"id": request_id}
        if flags & _RS_TRACE:
            payload["trace"] = _unpack_trace(reader)
        msg_len = reader.u16()
        payload["error"] = reader.take(msg_len).decode("utf-8", "replace")
        reader.done()
        return payload
    if kind == _KIND_SERIES:
        return _unpack_series(body, peer, len(metric_names))
    if kind != _KIND_RESPONSE:
        raise ProtocolError(
            f"unknown binary message kind {kind}{_peer_suffix(peer)}"
        )
    payload = {"id": request_id}
    trace = _unpack_trace(reader) if flags & _RS_TRACE else None
    if trace is not None:
        payload["trace"] = trace
    name = reader.take(reader.u8()).decode("utf-8", "replace")
    n_windows = reader.u16()
    catalog = list(metric_names)
    if n_windows and not catalog:
        raise ProtocolError(
            f"binary sample frame but no interned metric catalog "
            f"negotiated{_peer_suffix(peer)}"
        )
    windows = []
    for _ in range(n_windows):
        timestamp = reader.f64()
        emit_wall = reader.f64()
        row = struct.unpack(
            f">{len(catalog)}d", reader.take(8 * len(catalog))
        )
        windows.append({
            "timestamp": timestamp,
            "node_name": name,
            "node": dict(zip(catalog, row)),
            "emit_wall": emit_wall,
        })
    reader.done()
    if flags & _RS_SINGLE:
        if flags & _RS_NONE or not windows:
            payload["result"] = None
        else:
            payload["result"] = windows[0]
    else:
        payload["result"] = {"node_name": name, "windows": windows}
    return payload
