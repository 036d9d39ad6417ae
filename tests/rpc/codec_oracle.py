"""The codec's general path as it was before call plans, kept as the
parity oracle: every frame built and read by the flag-by-flag functions,
the three fixed layouts inline in them, and ``dispatch`` mapping a
handler's exceptions to error responses.

Every frame a :class:`repro.rpc.codec.CallPlan` packs must be
byte-identical to what ``encode_request_frame`` / ``encode_response_frame``
here produce for the same call, and every result it unpacks ``==`` (and
of the same types as) what ``decode_message`` here returns
(``test_call_plans.py``).  A series is read as the
:class:`~repro.rpc.protocol.SeriesRows` a plan reads, and one is packed
through the dict it reads as.
"""

import struct
from functools import lru_cache
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rpc.protocol import (
    MetricRow,
    ProtocolError,
    SeriesRows,
    TraceContext,
    _LENGTH,
    _peer_suffix,
    decode_frame,
    encode_frame,
    make_error,
    make_request,
    make_response,
    max_frame_bytes,
)

#: Codec names carried in hello/welcome negotiation.
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
_REQUEST_PARAMS = frozenset({"now", "max_windows"})

#: Keys of a sample window / a batch result the binary layout carries.
#: A dict with any other key goes out as a JSON frame.
_WINDOW_KEYS = frozenset({"timestamp", "emit_wall", "node_name", "node"})
_BATCH_KEYS = frozenset({"node_name", "windows"})
_SERIES_KEYS = frozenset({"seconds", "vectors", "watermark"})

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

#: Every binary frame starts: length, magic, kind, request id, flags.
_FRAME_HEAD = struct.Struct(">IBBIB")
_STAMPS = struct.Struct(">dd")  # a window's timestamp, emit_wall
_U16 = struct.Struct(">H")
_WIRE_F64 = np.dtype(">f8")

#: The params behind a request's method byte, by the flags that announce
#: them: alone they make the whole untraced frame (``_REQUEST``), behind
#: a trace block they are the frame's tail (``_REQUEST_TAIL``).
_REQUEST_PARAM_FORMATS = {
    0: "", _RQ_NOW: "d", _RQ_MAXW: "H", _RQ_NOW | _RQ_MAXW: "dH",
}
_REQUEST = {
    flags: struct.Struct(">IBBIBB" + params)
    for flags, params in _REQUEST_PARAM_FORMATS.items()
}
_REQUEST_TAIL = {
    flags: struct.Struct(">" + params)
    for flags, params in _REQUEST_PARAM_FORMATS.items()
}


@lru_cache(maxsize=256)
def _sample_struct(name_len: int) -> struct.Struct:
    """An untraced single-sample response up to its row: head, node
    name, window count (1), timestamp, emit_wall."""
    return struct.Struct(f">IBBIBB{name_len}sHdd")


@lru_cache(maxsize=32)
def _series_struct(values: int) -> struct.Struct:
    """A series message with ``values`` row values, up to its trace:
    head, watermark, first second, row count, rows."""
    return struct.Struct(f">IBBIBdqH{values}d")


#: Offset of the row count in a series message.
_SERIES_ROWS_AT = _series_struct(0).size - _U16.size


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
    parts = [bytes((flags,)), trace_id, span_id]
    if parent_id is not None:
        parts.append(parent_id)
    parts.append(bytes((len(origin),)))
    parts.append(origin)
    return b"".join(parts)


class _Reader:
    """Bounds-checked cursor over one binary frame, for the shapes no
    fixed layout covers: traced frames, errors, batches, and any frame
    whose length disagrees with its layout (to say how)."""

    __slots__ = ("data", "pos", "end", "peer")

    def __init__(self, data: bytes, peer: str, pos: int, end: int) -> None:
        self.data = data
        self.pos = pos
        self.end = end
        self.peer = peer

    def skip(self, n: int) -> int:
        """Advance over ``n`` bytes; returns where they start."""
        start = self.pos
        if start + n > self.end:
            raise ProtocolError(
                f"truncated binary frame: need {start + n} bytes, have "
                f"{self.end}{_peer_suffix(self.peer)}"
            )
        self.pos = start + n  # fpt: noqa[FPT401] -- per-frame cursor, confined to the one thread decoding this payload
        return start

    def take(self, n: int) -> bytes:
        start = self.skip(n)
        return self.data[start:start + n]

    def u8(self) -> int:
        return self.data[self.skip(1)]

    def u16(self) -> int:
        return _U16.unpack_from(self.data, self.skip(2))[0]

    def done(self) -> None:
        if self.pos != self.end:
            raise ProtocolError(
                f"binary frame has {self.end - self.pos} trailing "
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

def _body_length(frame_bytes: int, peer: str, limit: Optional[int]) -> int:
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


def _frame(
    kind: int, request_id: int, flags: int, tail: bytes,
    peer: str, limit: Optional[int],
) -> bytes:
    """A binary frame no fixed layout covers: the head, then ``tail``."""
    return _FRAME_HEAD.pack(
        _body_length(_FRAME_HEAD.size + len(tail), peer, limit),
        MAGIC, kind, request_id, flags,
    ) + tail


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
    method_id = BINARY_METHOD_IDS.get(method) if codec == CODEC_BINARY else None
    if method_id is not None and params.keys() <= _REQUEST_PARAMS:
        packed_trace = _pack_trace(trace_wire)
        if packed_trace is not None:
            flags = 0
            values: List[Any] = []
            now = params.get("now")
            if now is not None:
                flags |= _RQ_NOW
                values.append(float(now))
            maxw = params.get("max_windows")
            if maxw is not None:
                flags |= _RQ_MAXW
                values.append(min(0xFFFF, max(0, int(maxw))))
            request_id &= 0xFFFFFFFF
            if not packed_trace:
                layout = _REQUEST[flags]
                return layout.pack(
                    _body_length(layout.size, peer, limit), MAGIC,
                    _KIND_REQUEST, request_id, flags, method_id, *values,
                )
            return _frame(
                _KIND_REQUEST, request_id, flags | _RQ_TRACE,
                bytes((method_id,)) + packed_trace
                + _REQUEST_TAIL[flags].pack(*values),
                peer, limit,
            )
    frame: Dict[str, Any] = make_request(request_id, method, params)
    if trace_wire is not None:
        frame["trace"] = trace_wire
    return encode_frame(frame, peer=peer, limit=limit)


def _pack_window(
    window: Any, metric_names: Sequence[str]
) -> Optional[Tuple[float, float, bytes]]:
    """A sample window as (timestamp, emit_wall, packed f64 row); None
    if it doesn't carry exactly the interned catalog, or carries more
    than a row."""
    if not (isinstance(window, dict) and window.keys() <= _WINDOW_KEYS):
        return None
    node = window.get("node")
    try:
        if type(node) is MetricRow and node.names is metric_names:
            row = node.row.astype(_WIRE_F64).tobytes()
        elif (isinstance(node, (dict, MetricRow))
                and len(node) == len(metric_names)):
            row = struct.pack(
                f">{len(metric_names)}d",
                *[float(node[name]) for name in metric_names],
            )
        else:
            return None
        return (
            float(window.get("timestamp", 0.0)),
            float(window.get("emit_wall", 0.0)),
            row,
        )
    except (KeyError, TypeError, ValueError):
        return None


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
            request_id = int(payload.get("id", 0)) & 0xFFFFFFFF
            if "error" in payload:
                message = str(payload["error"]).encode("utf-8")
                if len(message) <= 0xFFFF:
                    return _frame(
                        _KIND_ERROR, request_id,
                        _RS_TRACE if packed_trace else 0,
                        packed_trace + _U16.pack(len(message)) + message,
                        peer, limit,
                    )
            elif method in BINARY_METHOD_IDS:
                frame = _pack_result(
                    payload.get("result"), request_id, packed_trace,
                    metric_names, peer, limit,
                )
                if frame is not None:
                    return frame
    return encode_frame(payload, peer=peer, limit=limit)


def _pack_series(
    result: Dict[str, Any], request_id: int, packed_trace: bytes,
    width: int, peer: str, limit: Optional[int],
) -> Optional[bytes]:
    """Pack a ``collect`` result; None unless it is exactly consecutive
    integer ``seconds``, as many ``vectors`` of ``width`` numbers each,
    and a ``watermark``."""
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
        layout = _series_struct(rows * width)
        return layout.pack(
            _body_length(layout.size + len(packed_trace), peer, limit),
            MAGIC, _KIND_SERIES, request_id,
            _RS_TRACE if packed_trace else 0,
            result["watermark"], first, rows,
            *chain.from_iterable(vectors),
        ) + packed_trace
    except (struct.error, TypeError, OverflowError):
        return None


def _pack_result(
    result: Any, request_id: int, packed_trace: bytes,
    metric_names: Sequence[str], peer: str, limit: Optional[int],
) -> Optional[bytes]:
    """The binary frame of a sample-shaped result; None if it has none."""
    flags = _RS_TRACE if packed_trace else 0
    if result is None:
        flags |= _RS_SINGLE | _RS_NONE
        windows: Sequence[Dict[str, Any]] = ()
        node_name = ""
    elif isinstance(result, SeriesRows):
        # Packed through the dict it reads as.
        return _pack_series(
            result, request_id, packed_trace, len(metric_names), peer, limit
        )
    elif not isinstance(result, dict):
        return None
    elif "windows" in result:
        windows = result["windows"]
        if not (isinstance(windows, (list, tuple))
                and result.keys() <= _BATCH_KEYS):
            return None
        node_name = str(result.get("node_name", ""))
    elif "node" in result:
        flags |= _RS_SINGLE
        windows = (result,)
        node_name = str(result.get("node_name", ""))
    elif "vectors" in result:
        return _pack_series(
            result, request_id, packed_trace, len(metric_names), peer, limit
        )
    else:
        return None
    name = node_name.encode("utf-8")
    if len(name) > 255 or len(windows) > 0xFFFF:
        return None
    if windows and not metric_names:
        return None
    packed = [_pack_window(window, metric_names) for window in windows]
    if None in packed:
        return None
    if flags == _RS_SINGLE:
        # The untraced single sample: one fixed layout, then the row.
        ((timestamp, emit_wall, row),) = packed
        layout = _sample_struct(len(name))
        return layout.pack(
            _body_length(layout.size + len(row), peer, limit), MAGIC,
            _KIND_RESPONSE, request_id, flags, len(name), name, 1,
            timestamp, emit_wall,
        ) + row
    parts = [packed_trace, bytes((len(name),)), name, _U16.pack(len(packed))]
    for timestamp, emit_wall, row in packed:
        parts.append(_STAMPS.pack(timestamp, emit_wall))
        parts.append(row)
    return _frame(
        _KIND_RESPONSE, request_id, flags, b"".join(parts), peer, limit
    )


# -- decoding -----------------------------------------------------------------

def _truncated(what: str, total: int, peer: str) -> ProtocolError:
    return ProtocolError(
        f"truncated binary frame: {what} of {total} bytes{_peer_suffix(peer)}"
    )


def _unpack_series(
    data: bytes, total: int, request_id: int, flags: int, peer: str,
    width: int,
) -> Dict[str, Any]:
    if total < _SERIES_ROWS_AT + _U16.size:
        raise _truncated("series", total, peer)
    (rows,) = _U16.unpack_from(data, _SERIES_ROWS_AT)
    layout = _series_struct(rows * width)
    if total < layout.size:
        raise _truncated("series", total, peer)
    fields = layout.unpack_from(data)
    watermark, first, values = fields[5], fields[6], fields[8:]
    if rows and not width:
        raise ProtocolError(
            f"binary series frame but no interned metric catalog "
            f"negotiated{_peer_suffix(peer)}"
        )
    payload: Dict[str, Any] = {"id": request_id}
    if flags & _RS_TRACE or total != layout.size:
        reader = _Reader(data, peer, layout.size, total)
        if flags & _RS_TRACE:
            payload["trace"] = _unpack_trace(reader)
        reader.done()
    payload["result"] = SeriesRows(first, [
        list(values[at:at + width]) for at in range(0, len(values), width)
    ], watermark)
    return payload


def decode_message(
    data: bytes, peer: str = "", metric_names: Sequence[str] = (),
    limit: Optional[int] = None,
) -> Tuple[Dict[str, Any], int]:
    """Decode one frame (either codec) from the head of ``data``.

    Returns ``(payload, consumed)`` with the payload in the JSON dict
    shape regardless of wire codec (a sample's ``node`` is a
    :class:`~repro.rpc.protocol.MetricRow` over the decoded row, which
    equals the dict); raises :class:`ProtocolError` on truncated,
    oversized or garbage input, labelled with ``peer``.

    The untraced request, the untraced single sample and the series are
    read by one ``unpack_from`` when the frame's length is their
    layout's; everything else -- and a frame whose length disagrees --
    is walked by a :class:`_Reader`.
    """
    total = frame_length(data, peer, limit)
    if total is None or len(data) < total:
        raise ProtocolError(
            f"short frame: need {total or _LENGTH.size} bytes, have "
            f"{len(data)}{_peer_suffix(peer)}"
        )
    if total == _LENGTH.size or data[_LENGTH.size] != MAGIC:
        return decode_frame(data[:total], peer=peer, limit=limit)
    if total < _FRAME_HEAD.size:
        raise _truncated("head", total, peer)
    _, _, kind, request_id, flags = _FRAME_HEAD.unpack_from(data)
    if kind == _KIND_REQUEST:
        return _unpack_request(data, total, request_id, flags, peer), total
    if kind == _KIND_SERIES:
        return _unpack_series(
            data, total, request_id, flags, peer, len(metric_names)
        ), total
    if kind == _KIND_RESPONSE:
        if type(metric_names) is not tuple:
            metric_names = tuple(metric_names)
        return _unpack_response(
            data, total, request_id, flags, peer, metric_names
        ), total
    if kind != _KIND_ERROR:
        raise ProtocolError(
            f"unknown binary message kind {kind}{_peer_suffix(peer)}"
        )
    reader = _Reader(data, peer, _FRAME_HEAD.size, total)
    payload: Dict[str, Any] = {"id": request_id}
    if flags & _RS_TRACE:
        payload["trace"] = _unpack_trace(reader)
    payload["error"] = reader.take(reader.u16()).decode("utf-8", "replace")
    reader.done()
    return payload, total


def _unpack_request(
    data: bytes, total: int, request_id: int, flags: int, peer: str
) -> Dict[str, Any]:
    layout = _REQUEST.get(flags)  # None for a traced request
    if layout is not None and layout.size == total:
        fields = layout.unpack_from(data)
        method_id, values, trace = fields[5], fields[6:], None
    else:
        reader = _Reader(data, peer, _FRAME_HEAD.size, total)
        method_id = reader.u8()
        trace = _unpack_trace(reader) if flags & _RQ_TRACE else None
        tail = _REQUEST_TAIL[flags & (_RQ_NOW | _RQ_MAXW)]
        values = tail.unpack_from(data, reader.skip(tail.size))
        reader.done()
    method = _METHOD_BY_ID.get(method_id)
    if method is None:
        raise ProtocolError(
            f"unknown binary method id {method_id}{_peer_suffix(peer)}"
        )
    params: Dict[str, Any] = {}
    if flags & _RQ_NOW:
        params["now"] = values[0]
    if flags & _RQ_MAXW:
        params["max_windows"] = values[-1]
    payload = {"id": request_id, "method": method, "params": params}
    if trace is not None:
        payload["trace"] = trace
    return payload


def _window(
    timestamp: float, emit_wall: float, name: str,
    data: bytes, row_at: int, metric_names: Tuple[str, ...],
) -> Dict[str, Any]:
    """A decoded sample window over the wire row at ``data[row_at:]``."""
    row = np.frombuffer(data, _WIRE_F64, len(metric_names), row_at)
    return {
        "timestamp": timestamp,
        "node_name": name,
        "node": MetricRow(metric_names, row.astype(np.float64)),
        "emit_wall": emit_wall,
    }


def _unpack_response(
    data: bytes, total: int, request_id: int, flags: int, peer: str,
    metric_names: Tuple[str, ...],
) -> Dict[str, Any]:
    width = len(metric_names)
    if flags == _RS_SINGLE and total > _FRAME_HEAD.size:
        # Untraced, so the node name's length sits right behind the head.
        layout = _sample_struct(data[_FRAME_HEAD.size])
        if total == layout.size + 8 * width and width:
            fields = layout.unpack_from(data)
            if fields[7] == 1:
                return {"id": request_id, "result": _window(
                    fields[8], fields[9], fields[6].decode("utf-8", "replace"),
                    data, layout.size, metric_names,
                )}
    reader = _Reader(data, peer, _FRAME_HEAD.size, total)
    payload: Dict[str, Any] = {"id": request_id}
    if flags & _RS_TRACE:
        payload["trace"] = _unpack_trace(reader)
    name = reader.take(reader.u8()).decode("utf-8", "replace")
    n_windows = reader.u16()
    if n_windows and not width:
        raise ProtocolError(
            f"binary sample frame but no interned metric catalog "
            f"negotiated{_peer_suffix(peer)}"
        )
    windows = []
    for _ in range(n_windows):
        timestamp, emit_wall = _STAMPS.unpack_from(data, reader.skip(16))
        windows.append(_window(
            timestamp, emit_wall, name, data, reader.skip(8 * width),
            metric_names,
        ))
    reader.done()
    if flags & _RS_SINGLE:
        if flags & _RS_NONE or not windows:
            payload["result"] = None
        else:
            payload["result"] = windows[0]
    else:
        payload["result"] = {"node_name": name, "windows": windows}
    return payload


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
    except TypeError as exc:
        return make_error(request_id, f"bad parameters for {method}: {exc}",
                          trace=trace)
    except Exception as exc:  # noqa: BLE001 - reported to the caller
        return make_error(request_id, f"{type(exc).__name__}: {exc}", trace=trace)
    return make_response(request_id, result, trace=trace)
