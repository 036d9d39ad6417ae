"""Binary codec v2: struct-packed frames for the hot poll path.

JSON frames repeat the 64 metric *names* in every sample, which is what
Table 4's per-iteration bandwidth would measure.  Codec v2 interns the
catalog once, at connection setup -- a v2 client's hello offers
``codecs: ["bin", "json"]``, the welcome answers with ``codec`` and the
ordered ``metrics`` -- and every sample frame then carries float rows
(IEEE-754 doubles, big-endian) behind a small header.  A v1 peer never
sends or reads those fields and stays on JSON.  The framing (a 4-byte
big-endian payload length) is shared; the first payload byte tells the
codecs apart: ``{`` (0x7B) for JSON, :data:`MAGIC` (0xA5) for binary.
:func:`decode_message` returns the dict the JSON codec would have, so
everything upstack is codec-blind.  Layouts (after the length prefix):

.. code-block:: text

   request   A5 01 <id:u32> <flags:u8> <method:u8>
             [trace] [now:f64] [max_windows:u16]
   response  A5 02 <id:u32> <flags:u8>
             [trace] <name_len:u8> <node_name> <n_windows:u16>
             n_windows x (<timestamp:f64> <emit_wall:f64> <row: n x f64>)
   error     A5 03 <id:u32> <flags:u8> [trace] <msg_len:u16> <message>
   series    A5 04 <id:u32> <flags:u8> <watermark:f64> <first:i64>
             <n_rows:u16> n_rows x (<row: n x f64>) [trace]
   trace     <flags:u8> <trace_id:8s> <span_id:4s> [parent_id:4s]
             <origin_len:u8> <origin>

A *series* is ``hadoop_log_rpcd``'s ``collect`` result: ``seconds``
``first, first + 1, ...``, one ``vectors`` row per second, ``watermark``.

**Call plans.**  A connection that settles on ``bin`` compiles its
steady round trips at the welcome: :func:`call_plans` builds a
:class:`CallPlan` per binary method; a serving one holds the handler's
bound ``rpc_*`` method, looked up per connection so that a wrapper put
on the class before the connection opened sees every call.  A *steady*
call is an untraced ``sample`` or ``collect`` with ``now`` alone: its
request is one fixed ``Struct`` (``>IBBIBBd``) whose length is held
against the connection's fixed frame limit once; its response is one
window against the catalog, packed and read with the layout of the
node name last seen on the connection (``_sample_struct``), or a
one-row series, packed and read with the one ``_series_struct(width)``.
Every other frame -- traced, the priming ``None``, errors, multi-row
catch-ups, a row in another catalog order, a frame over the limit,
JSON -- goes to the general functions, which walk binary frames field
by field (:class:`_Reader`) and name a frame truncated or trailed; the
untraced request with other params and ``poll_many``'s window walk stay
in the plan.  Both give the same bytes, decoded objects and errors.

A sample's ``node`` is a :class:`~repro.rpc.protocol.MetricRow`.  A row
against the connection's own catalog (interned per process, so an
identity test) goes out as ``row.astype(">f8").tobytes()``; another
mapping is read name by name into the same bytes.  Decoding wraps the
wire row as native float64.  Anything a binary frame cannot represent
(extra params, a mapping whose keys differ from the catalog, extra
result keys, a node name over 255 bytes, seconds with a gap, a ragged or
non-numeric row, non-hex trace ids) goes out as JSON on the same
connection, per message.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .protocol import (
    MetricRow,
    ProtocolError,
    _LENGTH,
    _peer_suffix,
    body_length,
    decode_frame,
    encode_frame,
    frame_end,
    frame_length,
    handler_failure,
    intern_catalog,
    make_request,
    response_result,
)

__all__ = [
    "CODEC_BINARY",
    "CODEC_JSON",
    "MAGIC",
    "BINARY_METHOD_IDS",
    "CallPlan",
    "call_plans",
    "decode_message",
    "encode_request_frame",
    "encode_response_frame",
    "frame_length",
    "is_binary_payload",
    "planned_answer",
    "read_frame",
    "recv_frame",
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
#: them: alone they make the whole untraced frame a plan packs
#: (``_REQUEST``), behind a trace block the tail the walk reads
#: (``_REQUEST_TAIL``).
_REQUEST_PARAM_FORMATS = {
    0: "", _RQ_NOW: "d", _RQ_MAXW: "H", _RQ_NOW | _RQ_MAXW: "dH",
}
_REQUEST = {
    flags: struct.Struct(">IBBIBB" + params)
    for flags, params in _REQUEST_PARAM_FORMATS.items()
}
#: The steady request, ``now`` alone, and its length prefix.
_NOW_REQUEST = _REQUEST[_RQ_NOW]
_NOW_BODY = _NOW_REQUEST.size - _LENGTH.size
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


def welcome_codec(welcome: Dict[str, Any]) -> Tuple[str, Tuple[str, ...]]:
    """The codec and interned metric catalog a welcome pins for its
    connection: ``("bin", names)`` or, for a v1 welcome, ``("json", ())``.
    ``names`` is the process's one tuple for that catalog, so a row a
    daemon laid out against it is recognised by identity."""
    if welcome.get("codec") == CODEC_BINARY:
        return CODEC_BINARY, intern_catalog(tuple(welcome.get("metrics") or ()))
    return CODEC_JSON, ()


def is_binary_payload(body: bytes) -> bool:
    """Whether a frame payload is codec-v2 binary (vs JSON)."""
    return bool(body) and body[0] == MAGIC


def recv_frame(
    sock: Any, peer: str = "", limit: Optional[int] = None
) -> Optional[bytes]:
    """Read one whole frame, length prefix included, from a blocking
    socket; ``None`` when the peer closed before the frame's first byte.

    The advertised length is held against the limit *before* the body is
    read, so a garbage prefix fails at once instead of buffering until
    the peer closes or the socket times out.
    """
    data = b""
    want = _LENGTH.size  # the prefix first, then the frame it announces
    while len(data) < want:
        chunk = sock.recv(min(65536, want - len(data)))
        if not chunk:
            if not data:
                return None
            raise ProtocolError(
                f"connection closed mid-frame{_peer_suffix(peer)}"
            )
        data += chunk
        if len(data) == _LENGTH.size:
            want = frame_length(data, peer=peer, limit=limit)
    return data


def read_frame(
    sock: Any, peer: str = "", metric_names: Sequence[str] = (),
    limit: Optional[int] = None,
) -> Optional[Tuple[Dict[str, Any], int]]:
    """:func:`recv_frame`, then :func:`decode_message` (either codec)."""
    data = recv_frame(sock, peer, limit)
    if data is None:
        return None
    return decode_message(
        data, peer=peer, metric_names=metric_names, limit=limit
    )


# -- trace block --------------------------------------------------------------

def _pack_trace(trace_wire: Optional[Dict[str, Any]]) -> Optional[bytes]:
    """Pack a wire trace object; None when it doesn't fit the binary
    layout (ids must be the 16/8 hex chars ``TraceContext`` mints)."""
    if trace_wire is None:
        return b""
    try:
        ids = [bytes.fromhex(trace_wire["id"]), bytes.fromhex(trace_wire["span"])]
        parent = trace_wire.get("parent")
        if parent is not None:
            ids.append(bytes.fromhex(parent))
    except (KeyError, TypeError, ValueError):
        return None
    origin = str(trace_wire.get("origin", "")).encode("utf-8")
    if [len(part) for part in ids] not in ([8, 4], [8, 4, 4]) or len(origin) > 255:
        return None
    flags = _TR_PARENT if parent is not None else 0
    return bytes((flags,)) + b"".join(ids) + bytes((len(origin),)) + origin


class _Reader:
    """Bounds-checked cursor over one binary frame: the field-by-field
    walk of the general decoder and of the ``poll_many`` plan."""

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

def _frame(
    kind: int, request_id: int, flags: int, tail: bytes,
    peer: str, limit: Optional[int],
) -> bytes:
    """A binary frame: the head, then ``tail``."""
    return _FRAME_HEAD.pack(
        body_length(_FRAME_HEAD.size + len(tail), peer, limit),
        MAGIC, kind, request_id, flags,
    ) + tail


def _request_values(params: Dict[str, Any]) -> Optional[Tuple[int, Tuple[Any, ...]]]:
    """A request's param flags and packed values; None when the params
    carry more than ``now`` and ``max_windows``."""
    if not params.keys() <= _REQUEST_PARAMS:
        return None
    now, maxw = params.get("now"), params.get("max_windows")
    if maxw is None:
        return (0, ()) if now is None else (_RQ_NOW, (float(now),))
    maxw = min(0xFFFF, max(0, int(maxw)))
    if now is None:
        return _RQ_MAXW, (maxw,)
    return _RQ_NOW | _RQ_MAXW, (float(now), maxw)


def _request_params(flags: int, values: Sequence[Any]) -> Dict[str, Any]:
    """The params a request's flags and unpacked values stand for."""
    params: Dict[str, Any] = {}
    if flags & _RQ_NOW:
        params["now"] = values[0]
    if flags & _RQ_MAXW:
        params["max_windows"] = values[-1]
    return params


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
    fit = _request_values(params) if method_id is not None else None
    packed_trace = _pack_trace(trace_wire) if fit is not None else None
    if packed_trace is not None:
        flags, values = fit
        return _frame(
            _KIND_REQUEST, request_id & 0xFFFFFFFF,
            flags | (_RQ_TRACE if packed_trace else 0),
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
    result: Any, request_id: int, packed_trace: bytes,
    width: int, peer: str, limit: Optional[int],
) -> Optional[bytes]:
    """Pack a ``collect`` result; None unless it is exactly consecutive
    integer ``seconds``, as many ``vectors`` of ``width`` numbers each,
    and a ``watermark``."""
    if not isinstance(result, dict) or result.keys() != _SERIES_KEYS:
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
            body_length(layout.size + len(packed_trace), peer, limit),
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
    """
    total = frame_end(data, peer, limit)
    if total == _LENGTH.size or data[_LENGTH.size] != MAGIC:
        return decode_frame(data[:total], peer=peer, limit=limit)
    if total < _FRAME_HEAD.size:
        raise _truncated("head", total, peer)
    _, _, kind, request_id, flags = _FRAME_HEAD.unpack_from(data)
    reader = _Reader(data, peer, _FRAME_HEAD.size, total)
    payload: Dict[str, Any] = {"id": request_id}
    if kind == _KIND_REQUEST:
        method_id = reader.u8()
        trace = _unpack_trace(reader) if flags & _RQ_TRACE else None
        tail = _REQUEST_TAIL[flags & (_RQ_NOW | _RQ_MAXW)]
        values = tail.unpack_from(data, reader.skip(tail.size))
        reader.done()
        payload["method"] = _METHOD_BY_ID.get(method_id)
        if payload["method"] is None:
            raise ProtocolError(
                f"unknown binary method id {method_id}{_peer_suffix(peer)}"
            )
        payload["params"] = _request_params(flags, values)
        if trace is not None:
            payload["trace"] = trace
    elif kind == _KIND_SERIES:
        width = len(metric_names)
        if total < _SERIES_ROWS_AT + _U16.size:
            raise _truncated("series", total, peer)
        (rows,) = _U16.unpack_from(data, _SERIES_ROWS_AT)
        layout = _series_struct(rows * width)
        if total < layout.size:
            raise _truncated("series", total, peer)
        if rows and not width:
            raise ProtocolError(
                f"binary series frame but no interned metric catalog "
                f"negotiated{_peer_suffix(peer)}"
            )
        fields = layout.unpack_from(data)
        reader = _Reader(data, peer, layout.size, total)
        if flags & _RS_TRACE:
            payload["trace"] = _unpack_trace(reader)
        reader.done()
        payload["result"] = {
            "seconds": list(range(fields[6], fields[6] + rows)),
            "vectors": [list(fields[8 + at * width:8 + (at + 1) * width])
                        for at in range(rows)],
            "watermark": fields[5],
        }
    elif kind in (_KIND_RESPONSE, _KIND_ERROR):
        if flags & _RS_TRACE:
            payload["trace"] = _unpack_trace(reader)
        if kind == _KIND_ERROR:
            payload["error"] = reader.take(reader.u16()).decode("utf-8", "replace")
            reader.done()
            return payload, total
        name, windows = _walk_windows(reader, tuple(metric_names))
        if not flags & _RS_SINGLE:
            payload["result"] = {"node_name": name, "windows": windows}
        else:
            no_window = flags & _RS_NONE or not windows
            payload["result"] = None if no_window else windows[0]
    else:
        raise ProtocolError(
            f"unknown binary message kind {kind}{_peer_suffix(peer)}"
        )
    return payload, total


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


def _walk_windows(
    reader: _Reader, metric_names: Tuple[str, ...]
) -> Tuple[str, List[Dict[str, Any]]]:
    """A response's node name and windows, read to the end of the frame."""
    width = len(metric_names)
    name = reader.take(reader.u8()).decode("utf-8", "replace")
    n_windows = reader.u16()
    if n_windows and not width:
        raise ProtocolError(
            f"binary sample frame but no interned metric catalog "
            f"negotiated{_peer_suffix(reader.peer)}"
        )
    windows = []
    for _ in range(n_windows):
        timestamp, emit_wall = _STAMPS.unpack_from(reader.data, reader.skip(16))
        windows.append(_window(
            timestamp, emit_wall, name, reader.data, reader.skip(8 * width),
            metric_names,
        ))
    reader.done()
    return name, windows


# -- call plans ---------------------------------------------------------------

class CallPlan:
    """One binary method's untraced call on one connection; as it stands,
    ``poll_many``'s (the window walk).  :meth:`request` and :meth:`result`
    are the client half, :meth:`answer` the serving one.  Each hands a
    frame or result that is not its layout to the general functions, so
    bytes, decoded objects and errors are theirs.  ``now_request`` packs
    the steady request; None when it is over the limit, which the general
    path then refuses."""

    __slots__ = ("method", "method_id", "names", "width", "peer", "limit",
                 "target", "now_request")

    def __init__(self, method: str, names: Tuple[str, ...], peer: str,
                 limit: int, target: Any) -> None:
        self.method = method
        self.method_id = BINARY_METHOD_IDS[method]
        self.names = names
        self.width = len(names)
        self.peer = peer
        self.limit = limit
        self.target = target
        self.now_request = _NOW_REQUEST.pack if _NOW_BODY <= limit else None

    def request(self, request_id: int, params: Dict[str, Any]) -> Optional[bytes]:
        """The request frame; None when ``params`` do not fit."""
        now = params.get("now") if len(params) == 1 else None
        if now is not None and self.now_request is not None:
            return self.now_request(_NOW_BODY, MAGIC, _KIND_REQUEST, request_id & 0xFFFFFFFF,
                                    _RQ_NOW, self.method_id, float(now))
        fit = _request_values(params)
        if fit is None:
            return None
        flags, values = fit
        layout = _REQUEST[flags]
        return layout.pack(
            body_length(layout.size, self.peer, self.limit), MAGIC,
            _KIND_REQUEST, request_id & 0xFFFFFFFF, flags, self.method_id,
            *values,
        )

    def result(self, data: bytes, request_id: int) -> Any:
        """The result of the response frame ``data`` to call ``request_id``;
        raises as :func:`decode_message` and :func:`response_result` do."""
        if (len(data) > _FRAME_HEAD.size and data[10] == 0
                and data[5] == _KIND_RESPONSE):
            length, magic, _, answered, _ = _FRAME_HEAD.unpack_from(data)
            if length == len(data) - _LENGTH.size <= self.limit and magic == MAGIC:
                reader = _Reader(data, self.peer, _FRAME_HEAD.size, len(data))
                name, windows = _walk_windows(reader, self.names)
                return self._checked(
                    {"node_name": name, "windows": windows}, answered, request_id
                )
        return self._decoded(data, request_id)

    def _checked(self, result: Any, answered: int, request_id: int) -> Any:
        if answered != request_id:
            response_result({"id": answered}, request_id, self.peer)
        return result

    def _decoded(self, data: bytes, request_id: int) -> Any:
        payload, _ = decode_message(data, self.peer, self.names, self.limit)
        return response_result(payload, request_id, self.peer)

    def answer(self, data: bytes) -> Optional[bytes]:
        """The response frame to the request frame ``data``; None unless
        it is an untraced one of this method (:func:`planned_answer`)."""
        layout = _REQUEST.get(data[10])
        if layout is None or len(data) != layout.size:
            return None
        fields = layout.unpack_from(data)
        if fields[0] != layout.size - _LENGTH.size:
            return None
        request_id, flags = fields[3], fields[4]
        try:
            if flags == _RQ_NOW:
                result = self.target(now=fields[6])
            else:
                result = self.target(**_request_params(flags, fields[6:]))
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            payload = {"id": request_id, "error": handler_failure(self.method, exc)}
        else:
            frame = self.pack(request_id, result)
            if frame is not None:
                return frame
            payload = {"id": request_id, "result": result}
        return encode_response_frame(
            payload, self.method, self.names, CODEC_BINARY, self.peer, self.limit
        )

    def pack(self, request_id: int, result: Any) -> Optional[bytes]:
        """The response frame of ``result``; None to encode it generally."""
        return _pack_result(result, request_id, b"", self.names, self.peer,
                            self.limit)


class _SamplePlan(CallPlan):
    """``sample``: one window in the ``_sample_struct`` layout.  ``named``
    caches the node name last packed or read: (name, its bytes, layout)."""

    __slots__ = ("named",)

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.named: Tuple[Any, bytes, struct.Struct] = self._name("")

    def _name(self, name: str) -> Tuple[Any, bytes, struct.Struct]:
        encoded = name.encode("utf-8")
        named = (name, encoded, _sample_struct(len(encoded)))
        if len(encoded) <= 255:
            self.named = named  # fpt: noqa[FPT401] -- per-connection cache, replaced whole; one thread serves or polls a connection
        return named

    def result(self, data: bytes, request_id: int) -> Any:
        named = self.named
        if len(data) > _FRAME_HEAD.size:
            layout = (named[2] if data[_FRAME_HEAD.size] == len(named[1])
                      else _sample_struct(data[_FRAME_HEAD.size]))
            if len(data) == layout.size + 8 * self.width:
                (length, magic, kind, answered, flags, _, name, windows,
                 timestamp, emit_wall) = layout.unpack_from(data)
                if (length == len(data) - _LENGTH.size <= self.limit
                        and magic == MAGIC and kind == _KIND_RESPONSE
                        and flags == _RS_SINGLE and windows == 1):
                    if name != named[1]:
                        named = self._name(name.decode("utf-8", "replace"))
                    return self._checked(_window(
                        timestamp, emit_wall, named[0], data, layout.size,
                        self.names,
                    ), answered, request_id)
        return self._decoded(data, request_id)

    def pack(self, request_id: int, result: Any) -> Optional[bytes]:
        if type(result) is dict and result.keys() <= _WINDOW_KEYS:
            node, name = result.get("node"), result.get("node_name", "")
            if type(node) is MetricRow and node.names is self.names and type(name) is str:
                named = self.named if name == self.named[0] else self._name(name)
                if len(named[1]) <= 255:
                    try:
                        row = node.row.astype(_WIRE_F64).tobytes()
                        stamps = (float(result.get("timestamp", 0.0)),
                                  float(result.get("emit_wall", 0.0)))
                    except (TypeError, ValueError):
                        return None
                    length = named[2].size - _LENGTH.size + len(row)
                    if length <= self.limit:
                        return named[2].pack(
                            length, MAGIC, _KIND_RESPONSE, request_id,
                            _RS_SINGLE, len(named[1]), named[1], 1, *stamps,
                        ) + row
        return super().pack(request_id, result)


class _SeriesPlan(CallPlan):
    """``collect``: the ``_series_struct`` layout; a one-row series is
    packed and read with the one ``Struct`` of its size, ``one_row``
    (None when that frame is over the connection's limit)."""

    __slots__ = ("one_row",)

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        layout = _series_struct(self.width)
        self.one_row = layout if layout.size - _LENGTH.size <= self.limit else None

    def result(self, data: bytes, request_id: int) -> Any:
        one_row = self.one_row
        if one_row is not None and len(data) == one_row.size:
            fields = one_row.unpack(data)
            if (fields[0] == one_row.size - _LENGTH.size and fields[1] == MAGIC
                    and fields[2] == _KIND_SERIES and fields[4] == 0 and fields[7] == 1):
                return self._checked({
                    "seconds": [fields[6]], "vectors": [list(fields[8:])],
                    "watermark": fields[5],
                }, fields[3], request_id)
        return self._decoded(data, request_id)

    def pack(self, request_id: int, result: Any) -> Optional[bytes]:
        one_row = self.one_row
        if one_row is not None and type(result) is dict and result.keys() == _SERIES_KEYS:
            seconds, vectors = result["seconds"], result["vectors"]
            if (type(seconds) is list and type(vectors) is list
                    and len(seconds) == len(vectors) == 1
                    and type(seconds[0]) is int):
                try:
                    if len(vectors[0]) == self.width:
                        return one_row.pack(one_row.size - _LENGTH.size, MAGIC, _KIND_SERIES,
                                            request_id, 0, result["watermark"], seconds[0], 1,
                                            *vectors[0])
                except (struct.error, TypeError, OverflowError):
                    return None
        return super().pack(request_id, result)


_PLANS = {"sample": _SamplePlan, "collect": _SeriesPlan, "poll_many": CallPlan}


def call_plans(
    codec: str, methods: Sequence[str], metric_names: Tuple[str, ...],
    peer: str, limit: int, handler: Any = None,
) -> Dict[str, CallPlan]:
    """One plan per binary method a welcome advertises, when it settled on
    ``bin`` with a catalog.  The serving end's ``handler`` methods are
    looked up here, per connection, so a wrapper already around them sees
    every call."""
    if codec != CODEC_BINARY or not metric_names:
        return {}
    return {
        method: _PLANS[method](
            method, metric_names, peer, limit,
            None if handler is None else getattr(handler, f"rpc_{method}"),
        )
        for method in methods if method in _PLANS
    }


def planned_answer(plans: Dict[str, CallPlan], data: bytes) -> Optional[bytes]:
    """The plan-built response to the request frame ``data``; None unless
    it is an untraced request of a method ``plans`` holds."""
    if len(data) > _FRAME_HEAD.size and data[4] == MAGIC and data[5] == _KIND_REQUEST:
        plan = plans.get(_METHOD_BY_ID.get(data[_FRAME_HEAD.size]))
        if plan is not None:
            return plan.answer(data)
    return None
