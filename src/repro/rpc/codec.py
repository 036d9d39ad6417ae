"""Binary frames for the three data calls: ``sample``, ``collect``, ``poll_many``.

JSON would repeat the 64 metric *names* in every sample, which is what
Table 4's per-iteration bandwidth would measure.  Instead the welcome
carries the ordered catalog once (``metrics``), and every frame of a
data call -- request, result, error -- is binary: float rows
(big-endian IEEE-754 doubles) behind a small header.  Every other
message is JSON: hello, welcome, the control calls and the strace
extension's ``trace`` / ``categories``.  The method names the frame,
and :class:`Wire` is where that rule lives.  The first payload byte
tells the two apart: ``{`` (0x7B) for JSON, :data:`MAGIC` (0xA5) for
binary; :func:`decode_message` returns the dict a JSON frame would have
held.  Layouts (after the 4-byte big-endian length prefix):

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

A *series* is ``collect``'s result: ``seconds`` ``first, first + 1,
...``, one ``vectors`` row each, ``watermark``.  ``sample`` answers with
one window (flags 0x02) or, on the priming call, ``None`` (0x06);
``poll_many`` with a batch.

**Call plans.**  A connection builds one :class:`CallPlan` per data
method against its catalog, peer and frame limit; a serving end's is
bound to the handler's ``rpc_*`` method, looked up per connection so
that a wrapper put on the class before it opened sees every call.  A
plan is the one encoder of its method's frames and reads them back.
The *steady* call, an untraced ``sample`` or ``collect`` with ``now``
alone, is packed and read with fixed ``Struct`` layouts (``now_request``,
``_SamplePlan.named``, ``_SeriesPlan.one_row``); every other frame is
read field by field (:class:`_Reader`), which names a frame truncated
or trailed.  A row -- a :class:`~repro.rpc.protocol.MetricRow` on the
connection's catalog, interned per process -- ships as
``row.astype(">f8").tobytes()`` and decodes as native float64.

**What does not fit.**  A request whose params are not ``now`` and
``max_windows`` (clamped to its u16) or whose trace ids are not the hex
a ``TraceContext`` mints raises :class:`ProtocolError` before a byte is
sent.  A result the layout cannot carry -- an extra key, a row not on
the catalog, a node name over 255 bytes or unlike its batch's, seconds
with a gap, more than 65 535 rows -- goes out as an error frame that
names it: the caller gets a :class:`~repro.rpc.protocol.RemoteError`,
and the connection goes on.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .protocol import (
    CODEC_BINARY,
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
    max_frame_bytes,
    response_result,
)

__all__ = [
    "CODEC_BINARY",
    "MAGIC",
    "BINARY_METHOD_IDS",
    "CallPlan",
    "Wire",
    "decode_message",
    "encode_request_frame",
    "encode_response_frame",
    "frame_length",
    "read_frame",
    "recv_frame",
]

#: First payload byte of every binary message (JSON objects start with
#: ``{`` = 0x7B, so one byte discriminates).
MAGIC = 0xA5

_KIND_REQUEST = 1
_KIND_RESPONSE = 2
_KIND_ERROR = 3
_KIND_SERIES = 4

#: The data methods, whose frames are binary.  Every other call is JSON.
BINARY_METHOD_IDS: Dict[str, int] = {"sample": 1, "poll_many": 2, "collect": 3}
_METHOD_BY_ID = {v: k for k, v in BINARY_METHOD_IDS.items()}

#: Request param keys a binary frame can carry.
_REQUEST_PARAMS = frozenset({"now", "max_windows"})

#: Keys of a sample window / a batch result / a series the layouts carry.
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
#: a trace block the frame's tail (``_REQUEST_TAIL``).
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


class _Unfit(ProtocolError):
    """A value a data frame's layout has no field for."""


def _shape(value: Any) -> str:
    """What a value is, for an error: a dict's keys, else its type."""
    if isinstance(value, dict):
        return "with keys " + ", ".join(sorted(map(str, value)))
    return f"of type {type(value).__name__}"


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
    """:func:`recv_frame`, then :func:`decode_message`."""
    data = recv_frame(sock, peer, limit)
    if data is None:
        return None
    return decode_message(
        data, peer=peer, metric_names=metric_names, limit=limit
    )


# -- trace block --------------------------------------------------------------

def _pack_trace(trace_wire: Optional[Dict[str, Any]]) -> bytes:
    """Pack a wire trace object (``b""`` for none); its ids must be the
    16/8 hex chars ``TraceContext`` mints."""
    if trace_wire is None:
        return b""
    try:
        ids = [bytes.fromhex(trace_wire["id"]), bytes.fromhex(trace_wire["span"])]
        parent = trace_wire.get("parent")
        if parent is not None:
            ids.append(bytes.fromhex(parent))
        origin = str(trace_wire.get("origin", "")).encode("utf-8")
    except (AttributeError, KeyError, TypeError, ValueError):
        raise _Unfit(f"trace {trace_wire!r} is no trace context") from None
    if [len(part) for part in ids] not in ([8, 4], [8, 4, 4]) or len(origin) > 255:
        raise _Unfit(f"trace {trace_wire!r} is no trace context")
    flags = _TR_PARENT if parent is not None else 0
    return bytes((flags,)) + b"".join(ids) + bytes((len(origin),)) + origin


class _Reader:
    """Bounds-checked cursor over one binary frame: the field-by-field
    walk of every frame the steady layouts do not read."""

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


# -- requests -----------------------------------------------------------------

def _frame(
    kind: int, request_id: int, flags: int, tail: bytes,
    peer: str, limit: Optional[int],
) -> bytes:
    """A binary frame: the head, then ``tail``."""
    return _FRAME_HEAD.pack(
        body_length(_FRAME_HEAD.size + len(tail), peer, limit),
        MAGIC, kind, request_id, flags,
    ) + tail


def _request_values(method: str, params: Dict[str, Any]) -> Tuple[int, Tuple[Any, ...]]:
    """A request's param flags and packed values."""
    if not params.keys() <= _REQUEST_PARAMS:
        extra = sorted(params.keys() - _REQUEST_PARAMS)
        raise _Unfit(f"{method} params {extra} have no field in a binary request")
    now, maxw = params.get("now"), params.get("max_windows")
    try:
        if maxw is None:
            return (0, ()) if now is None else (_RQ_NOW, (float(now),))
        maxw = min(0xFFFF, max(0, int(maxw)))
        if now is None:
            return _RQ_MAXW, (maxw,)
        return _RQ_NOW | _RQ_MAXW, (float(now), maxw)
    except (TypeError, ValueError, OverflowError):
        raise _Unfit(
            f"{method} params {params!r} do not fit now:f64 and max_windows:u16"
        ) from None


def _request_params(flags: int, values: Sequence[Any]) -> Dict[str, Any]:
    """The params a request's flags and unpacked values stand for."""
    params: Dict[str, Any] = {}
    if flags & _RQ_NOW:
        params["now"] = values[0]
    if flags & _RQ_MAXW:
        params["max_windows"] = values[-1]
    return params


# -- the general decoder --------------------------------------------------------

def _truncated(what: str, total: int, peer: str) -> ProtocolError:
    return ProtocolError(
        f"truncated binary frame: {what} of {total} bytes{_peer_suffix(peer)}"
    )


def decode_message(
    data: bytes, peer: str = "", metric_names: Sequence[str] = (),
    limit: Optional[int] = None,
) -> Tuple[Dict[str, Any], int]:
    """Decode one frame, binary or JSON, from the head of ``data``.

    Returns ``(payload, consumed)`` with the payload in the JSON dict
    shape (a sample's ``node`` is a
    :class:`~repro.rpc.protocol.MetricRow` over the decoded row, which
    equals the dict); raises :class:`ProtocolError` on truncated,
    oversized or garbage input, or a data request in JSON, labelled with
    ``peer``.
    """
    total = frame_end(data, peer, limit)
    if total == _LENGTH.size or data[_LENGTH.size] != MAGIC:
        payload, _ = decode_frame(data[:total], peer=peer, limit=limit)
        method = payload.get("method")
        if isinstance(method, str) and method in BINARY_METHOD_IDS:
            raise ProtocolError(
                f"{method} request in JSON: data calls are binary"
                f"{_peer_suffix(peer)}"
            )
        return payload, total
    if total < _FRAME_HEAD.size:
        raise _truncated("head", total, peer)
    _, _, kind, request_id, flags = _FRAME_HEAD.unpack_from(data)
    reader = _Reader(data, peer, _FRAME_HEAD.size, total)
    payload = {"id": request_id}
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
                "binary series frame but no interned metric catalog"
                f"{_peer_suffix(peer)}"
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
            "binary sample frame but no interned metric catalog"
            f"{_peer_suffix(reader.peer)}"
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
    """One data method's frames on one connection; as it stands,
    ``poll_many``'s (a batch of windows).  :meth:`request` and
    :meth:`result` are the client half; :meth:`answer` (an untraced
    request, whole) and :meth:`respond` (a dispatched payload) the
    serving one; :meth:`pack` packs a result.  ``now_request`` packs the
    steady request; None when it is over the limit, which
    :meth:`request` then refuses."""

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

    # -- the client half

    def request(self, request_id: int, params: Dict[str, Any],
                trace_wire: Optional[Dict[str, Any]] = None) -> bytes:
        """The request frame; :class:`ProtocolError` when ``params`` or
        ``trace_wire`` do not fit it."""
        if trace_wire is None and len(params) == 1 and self.now_request is not None:
            now = params.get("now")
            if now is not None:
                try:
                    return self.now_request(
                        _NOW_BODY, MAGIC, _KIND_REQUEST, request_id & 0xFFFFFFFF,
                        _RQ_NOW, self.method_id, float(now),
                    )
                except (TypeError, ValueError, OverflowError):
                    pass  # refused below, with the reason
        flags, values = _request_values(self.method, params)
        trace = _pack_trace(trace_wire)
        request_id &= 0xFFFFFFFF
        if trace:
            return _frame(
                _KIND_REQUEST, request_id, flags | _RQ_TRACE,
                bytes((self.method_id,)) + trace + _REQUEST_TAIL[flags].pack(*values),
                self.peer, self.limit,
            )
        layout = _REQUEST[flags]
        return layout.pack(
            body_length(layout.size, self.peer, self.limit), MAGIC,
            _KIND_REQUEST, request_id, flags, self.method_id, *values,
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
        if len(data) <= _LENGTH.size or data[_LENGTH.size] != MAGIC:
            frame_end(data, self.peer, self.limit)
            raise ProtocolError(
                f"{self.method} answered by a frame that is not binary"
                f"{_peer_suffix(self.peer)}"
            )
        payload, _ = decode_message(data, self.peer, self.names, self.limit)
        return response_result(payload, request_id, self.peer)

    # -- the serving half

    def answer(self, data: bytes) -> Optional[bytes]:
        """The response frame to the request frame ``data``; None unless
        it is an untraced one (:meth:`Wire.answer`)."""
        layout = _REQUEST.get(data[10])
        if layout is None or len(data) != layout.size:
            return None
        fields = layout.unpack_from(data)
        if fields[0] != layout.size - _LENGTH.size:
            return None
        request_id, flags = fields[3], fields[4]
        if self.target is None:
            return self._error(request_id, f"no such method: {self.method}")
        try:
            if flags == _RQ_NOW:
                result = self.target(now=fields[6])
            else:
                result = self.target(**_request_params(flags, fields[6:]))
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            return self._error(request_id, handler_failure(self.method, exc))
        try:
            return self.pack(request_id, result)
        except _Unfit as exc:
            return self._error(request_id, self._unfit(exc))

    def respond(self, payload: Dict[str, Any]) -> bytes:
        """The frame of a dispatched response ``payload``: ``id``, then
        ``result`` or ``error``, and ``trace`` when the call carried one."""
        request_id = int(payload.get("id", 0)) & 0xFFFFFFFF
        trace = b""
        try:
            trace = _pack_trace(payload.get("trace"))
            if "error" in payload:
                return self._error(request_id, payload["error"], trace)
            return self.pack(request_id, payload.get("result"), trace)
        except _Unfit as exc:
            return self._error(request_id, self._unfit(exc), trace)

    def _unfit(self, exc: _Unfit) -> str:
        return f"{self.method} result does not fit its binary frame: {exc}"

    def _error(self, request_id: int, message: Any, trace: bytes = b"") -> bytes:
        """An error frame; the message is cut to the 65 535 bytes it has."""
        raw = str(message).encode("utf-8", "replace")[:0xFFFF]
        return _frame(
            _KIND_ERROR, request_id, _RS_TRACE if trace else 0,
            trace + _U16.pack(len(raw)) + raw, self.peer, self.limit,
        )

    def _windows(self, request_id: int, flags: int, trace: bytes, name: bytes,
                 rows: Sequence[Tuple[float, float, bytes]]) -> bytes:
        """A response frame: ``rows`` are (timestamp, emit_wall, wire row)."""
        parts = [trace, bytes((len(name),)), name, _U16.pack(len(rows))]
        for timestamp, emit_wall, row in rows:
            parts.append(_STAMPS.pack(timestamp, emit_wall))
            parts.append(row)
        return _frame(
            _KIND_RESPONSE, request_id, flags | (_RS_TRACE if trace else 0),
            b"".join(parts), self.peer, self.limit,
        )

    def _priming(self, request_id: int, trace: bytes) -> bytes:
        """The ``None`` result: a one-sample frame with no window."""
        return self._windows(request_id, _RS_SINGLE | _RS_NONE, trace, b"", ())

    def _row(self, window: Any) -> Tuple[float, float, bytes]:
        """A sample window's timestamp, emit_wall and wire row."""
        if not isinstance(window, dict) or not window.keys() <= _WINDOW_KEYS:
            raise _Unfit(
                f"window {_shape(window)} is not timestamp, emit_wall, "
                "node_name and node"
            )
        node = window.get("node")
        if (type(node) is not MetricRow or not self.width
                or (node.names is not self.names and node.names != self.names)):
            raise _Unfit(f"node {_shape(node)} is no row on the metric catalog")
        try:
            return (float(window.get("timestamp", 0.0)),
                    float(window.get("emit_wall", 0.0)),
                    node.row.astype(_WIRE_F64).tobytes())
        except (TypeError, ValueError) as exc:
            raise _Unfit(f"window values: {exc}") from None

    def pack(self, request_id: int, result: Any, trace: bytes = b"") -> bytes:
        """The response frame of ``result``; :class:`_Unfit` when the
        layout cannot carry it."""
        if result is None:
            return self._priming(request_id, trace)
        if (not isinstance(result, dict) or "windows" not in result
                or not result.keys() <= _BATCH_KEYS):
            raise _Unfit(f"result {_shape(result)} is not node_name and windows")
        windows = result["windows"]
        if not isinstance(windows, (list, tuple)) or len(windows) > 0xFFFF:
            raise _Unfit(f"windows {_shape(windows)} is no list of up to 65 535")
        name = result.get("node_name", "")
        try:
            raw = name.encode("utf-8")
        except (AttributeError, UnicodeError):
            raise _Unfit(f"node_name {name!r} is not text") from None
        if len(raw) > 255:
            raise _Unfit(f"node_name of {len(raw)} bytes (at most 255)")
        rows = [self._row(window) for window in windows]
        if any(window.get("node_name", name) != name for window in windows):
            raise _Unfit(f"a window's node_name is not the batch's {name!r}")
        return self._windows(request_id, 0, trace, raw, rows)


class _SamplePlan(CallPlan):
    """``sample``: the priming ``None`` or one window, untraced in the
    ``_sample_struct`` layout.  ``named`` caches the node name last packed
    or read: (name, its bytes, layout)."""

    __slots__ = ("named",)

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.named: Tuple[Any, bytes, struct.Struct] = self._name("")

    def _name(self, name: Any) -> Tuple[Any, bytes, struct.Struct]:
        try:
            encoded = name.encode("utf-8")
        except (AttributeError, UnicodeError):
            raise _Unfit(f"node_name {name!r} is not text") from None
        named = (name, encoded, _sample_struct(len(encoded)))
        if len(encoded) <= 255:
            self.named = named  # fpt: noqa[FPT401] -- per-connection cache, replaced whole; one thread serves or polls a connection
        return named

    def result(self, data: bytes, request_id: int) -> Any:
        named = self.named
        if self.width and len(data) > _FRAME_HEAD.size:
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

    def pack(self, request_id: int, result: Any, trace: bytes = b"") -> bytes:
        if result is None:
            return self._priming(request_id, trace)
        timestamp, emit_wall, row = self._row(result)
        name = result.get("node_name", "")
        named = self.named if name == self.named[0] else self._name(name)
        if len(named[1]) > 255:
            raise _Unfit(f"node_name of {len(named[1])} bytes (at most 255)")
        if trace:
            return self._windows(
                request_id, _RS_SINGLE, trace, named[1],
                ((timestamp, emit_wall, row),),
            )
        return named[2].pack(
            body_length(named[2].size + len(row), self.peer, self.limit),
            MAGIC, _KIND_RESPONSE, request_id, _RS_SINGLE, len(named[1]),
            named[1], 1, timestamp, emit_wall,
        ) + row


class _SeriesPlan(CallPlan):
    """``collect``: the ``_series_struct`` layout; a one-row series is
    packed and read with the one ``Struct`` of its size, ``one_row``
    (None without a catalog, or when that frame is over the connection's
    limit)."""

    __slots__ = ("one_row",)

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        layout = _series_struct(self.width)
        fits = self.width and layout.size - _LENGTH.size <= self.limit
        self.one_row = layout if fits else None

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

    def pack(self, request_id: int, result: Any, trace: bytes = b"") -> bytes:
        if result is None:
            return self._priming(request_id, trace)
        if not isinstance(result, dict) or result.keys() != _SERIES_KEYS:
            raise _Unfit(
                f"result {_shape(result)} is not seconds, vectors and watermark"
            )
        seconds, vectors = result["seconds"], result["vectors"]
        one_row, width = self.one_row, self.width
        try:
            if (not trace and one_row is not None
                    and type(seconds) is list and type(vectors) is list
                    and len(seconds) == len(vectors) == 1
                    and type(seconds[0]) is int and len(vectors[0]) == width):
                return one_row.pack(
                    one_row.size - _LENGTH.size, MAGIC, _KIND_SERIES, request_id,
                    0, result["watermark"], seconds[0], 1, *vectors[0],
                )
            rows = len(seconds)
            if rows != len(vectors):
                raise _Unfit(f"{rows} seconds for {len(vectors)} rows")
            if rows > 0xFFFF:
                raise _Unfit(f"{rows} rows (at most 65 535)")
            first = seconds[0] if rows else 0
            if seconds != list(range(first, first + rows)):
                raise _Unfit("seconds are not consecutive integers")
            if rows and (not width or set(map(len, vectors)) != {width}):
                raise _Unfit(f"rows are not {width} values wide")
            layout = _series_struct(rows * width)
            return layout.pack(
                body_length(layout.size + len(trace), self.peer, self.limit),
                MAGIC, _KIND_SERIES, request_id, _RS_TRACE if trace else 0,
                result["watermark"], first, rows, *chain.from_iterable(vectors),
            ) + trace
        except (struct.error, TypeError, OverflowError) as exc:
            raise _Unfit(f"series values: {exc}") from None


_PLANS = {"sample": _SamplePlan, "collect": _SeriesPlan, "poll_many": CallPlan}


class Wire:
    """One connection's frames: a :class:`CallPlan` per data method in
    ``plans``, JSON for every other call.  Which encoding a frame takes
    is decided here.  The plans are built against the connection's
    catalog, peer and frame limit; a serving end's are bound to the
    ``handler``'s ``rpc_*`` methods, looked up here, per connection, so a
    wrapper already around them sees every call."""

    __slots__ = ("peer", "limit", "plans")

    def __init__(self, names: Tuple[str, ...], peer: str, limit: int,
                 handler: Any = None) -> None:
        self.peer = peer
        self.limit = limit
        self.plans: Dict[str, CallPlan] = {
            method: plan(
                method, names, peer, limit,
                None if handler is None else getattr(handler, f"rpc_{method}", None),
            )
            for method, plan in _PLANS.items()
        }

    def request(self, request_id: int, method: str, params: Dict[str, Any],
                trace_wire: Optional[Dict[str, Any]] = None) -> bytes:
        """The request frame of a call."""
        plan = self.plans.get(method)
        if plan is not None:
            return plan.request(request_id, params, trace_wire)
        frame = make_request(request_id, method, params)
        if trace_wire is not None:
            frame["trace"] = trace_wire
        return encode_frame(frame, peer=self.peer, limit=self.limit)

    def result(self, method: str, data: bytes, request_id: int) -> Any:
        """The result the response frame ``data`` carries for a call."""
        plan = self.plans.get(method)
        if plan is not None:
            return plan.result(data, request_id)
        payload, _ = decode_frame(data, self.peer, self.limit)
        return response_result(payload, request_id, self.peer)

    def answer(self, data: bytes) -> Optional[bytes]:
        """The plan-built response to the request frame ``data``; None
        unless it is an untraced data request."""
        if len(data) > _FRAME_HEAD.size and data[4] == MAGIC and data[5] == _KIND_REQUEST:
            plan = self.plans.get(_METHOD_BY_ID.get(data[_FRAME_HEAD.size]))
            if plan is not None:
                return plan.answer(data)
        return None

    def respond(self, method: Any, payload: Dict[str, Any]) -> bytes:
        """The response frame of a dispatched request of ``method``."""
        plan = self.plans.get(method) if isinstance(method, str) else None
        if plan is not None:
            return plan.respond(payload)
        return encode_frame(payload, peer=self.peer, limit=self.limit)


@lru_cache(maxsize=64)
def _wire(names: Tuple[str, ...], peer: str, limit: int) -> Wire:
    return Wire(intern_catalog(names), peer, limit)


def _shared_wire(metric_names: Sequence[str], peer: str, limit: Optional[int]) -> Wire:
    """The process's one :class:`Wire` for a catalog, peer and limit."""
    return _wire(tuple(metric_names), peer, max_frame_bytes() if limit is None else limit)


def encode_request_frame(
    request_id: int,
    method: str,
    params: Optional[Dict[str, Any]],
    trace_wire: Optional[Dict[str, Any]] = None,
    peer: str = "",
    limit: Optional[int] = None,
) -> bytes:
    """One request frame: binary for a data method, JSON otherwise."""
    return _shared_wire((), peer, limit).request(
        request_id, method, params or {}, trace_wire
    )


def encode_response_frame(
    payload: Dict[str, Any],
    method: Optional[str],
    metric_names: Sequence[str],
    codec: str = CODEC_BINARY,
    peer: str = "",
    limit: Optional[int] = None,
) -> bytes:
    """One response frame to a request of ``method``: binary for a data
    method, JSON otherwise.  ``payload`` is the dict
    :func:`repro.rpc.server.dispatch` produced.  ``codec`` names the data
    frames' codec, and :data:`CODEC_BINARY` is the only one."""
    if codec != CODEC_BINARY:
        raise ValueError(f"unknown codec {codec!r}: data frames are binary")
    return _shared_wire(metric_names, peer, limit).respond(method, payload)
