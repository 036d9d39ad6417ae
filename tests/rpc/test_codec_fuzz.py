"""Arbitrary bytes through the codec: a frame decodes or is refused.

Behind a valid length prefix any payload -- with or without the 0xA5
magic, every kind and flags byte, against catalogs of width 0, 8 and 64
-- makes :func:`decode_message` and each call plan's decoder either
return or raise :class:`ProtocolError`, never anything else; a plan
reads a binary frame exactly as the general decoder does (including the
:class:`RemoteError` an error frame carries) and refuses any other.  A
valid stream of frames cut anywhere reassembles into the same frames,
through :func:`frame_length` and through ``MultiPoller._pump``'s buffer.
A :class:`SeriesRows` is the dict it stands for: it compares, reads and
JSON-encodes as that dict, and a plan reads its frame back as the
general decoder does.
"""

import json
import struct


import numpy as np
from hypothesis import given, settings, strategies as st

from repro.rpc import (
    MetricRow,
    ProtocolError,
    RemoteError,
    SeriesRows,
    TraceContext,
)
from repro.rpc.codec import (
    CODEC_BINARY,
    _pack_trace,
    MAGIC,
    Wire,
    decode_message,
    encode_request_frame,
    encode_response_frame,
    frame_length,
)
from repro.rpc.poller import MultiPoller, _InFlight
from repro.rpc.protocol import (
    _LENGTH,
    decode_frame,
    encode_frame,
    intern_catalog,
    response_result,
)
from repro.rpc.server import negotiate

from .helpers import assert_same

CATALOGS = {
    width: intern_catalog(tuple(f"m{width}_{i}" for i in range(width)))
    for width in (0, 8, 64)
}
LIMIT = 1 << 20


class Handler:
    """Answers every planned method with a fixed, well-formed result."""

    def __init__(self, names):
        self.metric_names = names

    def rpc_sample(self, now=None):
        return {"timestamp": 1.0, "node_name": "n",
                "node": MetricRow(self.metric_names, np.zeros(len(self.metric_names)))}

    def rpc_collect(self, now=None):
        return SeriesRows(1, [[0.0] * len(self.metric_names)], 0.5)

    def rpc_poll_many(self, now=None, max_windows=32):
        return {"node_name": "n", "windows": [self.rpc_sample(now)]}


def outcome(call, *args):
    """``("ok", value)``, ``("remote", message)`` or ``("protocol", None)``;
    anything else escapes."""
    try:
        return "ok", call(*args)
    except RemoteError as exc:
        return "remote", str(exc)
    except ProtocolError:
        return "protocol", None


def wire_for(names):
    return Wire(names, "fuzz:1", LIMIT, Handler(names))


_binary = st.builds(
    lambda kind, request_id, flags, tail: bytes([MAGIC, kind])
    + request_id.to_bytes(4, "big") + bytes([flags]) + tail,
    st.integers(0, 255) | st.integers(1, 4), st.integers(0, 2**32 - 1),
    st.integers(0, 255) | st.sampled_from([0, 1, 2, 3, 4, 6, 7]),
    st.binary(max_size=700),
)
_payloads = st.binary(max_size=300) | _binary | st.builds(
    lambda tail: b"{" + tail, st.binary(max_size=100)
)


def _valid_frames():
    """One frame of every shape, from the real encoders: requests with
    and without params and traces, samples, batches, series, errors."""
    trace = TraceContext.new_root(origin="o").child().to_wire()
    frames = []
    for params in ({}, {"now": 2.0}, {"max_windows": 4}, {"now": 1.0, "max_windows": 9}):
        for method in ("sample", "collect", "poll_many"):
            for wire in (None, trace):
                frames.append(encode_request_frame(5, method, params, wire))
    for width in (8, 64):
        handler = Handler(CATALOGS[width])
        rows = SeriesRows(4, [[1.0] * width] * 3, 3.5)
        for method, result in (
            ("sample", handler.rpc_sample()), ("sample", None),
            ("poll_many", handler.rpc_poll_many()),
            ("poll_many", {"node_name": "n", "windows": []}),
            ("collect", handler.rpc_collect()), ("collect", rows),
            ("collect", SeriesRows(0, [], -1.0)),
        ):
            for extra in ({}, {"trace": trace}):
                frames.append(encode_response_frame(
                    dict({"id": 5, "result": result}, **extra),
                    method, CATALOGS[width],
                ))
    frames.append(encode_response_frame(
        {"id": 5, "error": "boom", "trace": trace}, "sample", ()
    ))
    return [frame[_LENGTH.size:] for frame in frames]


_VALID = _valid_frames()


def check_decoders(payload, width):
    """``payload`` behind its length prefix through every decoder."""
    names = CATALOGS[width]
    frame = _LENGTH.pack(len(payload)) + payload
    try:
        decoded, consumed = decode_message(frame, "fuzz:1", names, LIMIT)
    except ProtocolError:
        decoded = None
    else:
        assert consumed == len(frame)
    # The id the frame answers, so that a plan that reads too much is not
    # hidden behind an id mismatch.
    want, request_id = ("protocol", None), int.from_bytes(frame[6:10], "big")
    if decoded is not None:
        request_id = decoded.get("id", 0)
        want = outcome(response_result, decoded, request_id, "fuzz:1")
    wire = wire_for(names)
    binary = payload[:1] == bytes([MAGIC])
    for plan in wire.plans.values():
        # A plan reads a binary frame as the general decoder does, and
        # refuses any other.
        got = outcome(plan.result, frame, request_id)
        assert got[0] == (want[0] if binary else "protocol"), (plan.method, got, want)
        if got[0] != "protocol":
            assert_same(got[1], want[1])
    response = wire.answer(frame)
    if response is not None:        # an untraced request of a planned method
        assert decoded is not None and "method" in decoded
        assert decoded["method"] in wire.plans and "trace" not in decoded
        assert frame_length(response) == len(response)


class TestArbitraryPayloads:
    @settings(max_examples=500, deadline=None)
    @given(_payloads, st.sampled_from(sorted(CATALOGS)))
    def test_decoders_return_or_raise_protocol_error(self, payload, width):
        check_decoders(payload, width)

    def test_every_cut_and_padding_of_every_shape(self):
        for body in _VALID:
            for width in CATALOGS:
                check_decoders(body, width)
                for pad in (b"\x00", b"\xa5", b"\x01" * 9):
                    check_decoders(body + pad, width)
                for cut in range(len(body)):
                    check_decoders(body[:cut], width)

    def test_every_head_byte_of_every_shape_changed(self):
        """The fields a plan reads its layout off -- kind, flags, lengths,
        counts -- sit in the first bytes of a frame."""
        for body in _VALID:
            for at in range(min(len(body), 48)):
                for value in (0, 1, 2, 3, 0xFF):
                    changed = bytearray(body)
                    changed[at] = value
                    for width in CATALOGS:
                        check_decoders(bytes(changed), width)

    def test_a_node_name_of_255_bytes_that_is_not_utf8(self):
        """It decodes to more than 255 bytes of text: read, not refused."""
        name = b"\xff" * 255
        head = struct.pack(f">BBIBB{len(name)}sHdd", MAGIC, 2, 7, 2, len(name), name, 1, 1.0, 2.0)
        for width in (8, 64):
            check_decoders(head + bytes(8 * width), width)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_VALID), st.integers(0, 1 << 16), st.integers(0, 255),
           st.sampled_from(sorted(CATALOGS)))
    def test_one_changed_byte_of_every_shape(self, body, at, value, width):
        changed = bytearray(body)
        changed[at % len(body)] = value
        check_decoders(bytes(changed), width)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_a_hello_decodes_or_is_refused_and_any_hello_is_answered(self, body):
        try:
            hello, _ = decode_frame(_LENGTH.pack(len(body)) + body)
        except ProtocolError:
            return
        try:
            welcome = negotiate(Handler(CATALOGS[8]), "svc", hello)
        except ProtocolError:       # refused: no binary data frames offered
            offered = hello.get("codecs")
            assert not (isinstance(offered, list) and CODEC_BINARY in offered)
            return
        assert welcome["welcome"] == "svc"
        assert welcome["codec"] == CODEC_BINARY


def _stream(names):
    """Response frames of every shape the codec writes, back to back."""
    trace = TraceContext.new_root(origin="o").to_wire()
    handler = Handler(names)
    payloads = [
        ("sample", {"id": 1, "result": handler.rpc_sample()}),
        ("sample", {"id": 2, "result": None}),
        ("collect", {"id": 3, "result": handler.rpc_collect()}),
        ("collect", {"id": 4, "result": handler.rpc_collect(), "trace": trace}),
        ("poll_many", {"id": 5, "result": handler.rpc_poll_many()}),
        ("sample", {"id": 6, "error": "KeyError: 'x'"}),
        ("inject", {"id": 7, "result": {"node": "n", "fault": "cpuhog"}}),
    ]
    return [
        encode_response_frame(payload, method, names)
        for method, payload in payloads
    ]


class _Socket:
    def __init__(self, pieces):
        self.pieces = list(pieces)

    def recv(self, size):
        piece = self.pieces.pop(0)
        assert len(piece) <= size
        return piece


class _Client:
    """What ``_pump`` reads off a client: its socket, peer, limit, and
    ``finish_call`` -- here handing back the frame it was given."""

    peer = "fuzz:1"
    frame_limit = LIMIT

    def __init__(self, sock):
        self.sock = sock

    def finish_call(self, pending, data):
        return data


def _cuts(data, length):
    return sorted(set(data.draw(st.lists(st.integers(1, length - 1), max_size=12))))


class TestChunkedStreams:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_frame_length_reassembles_any_chunking(self, data):
        frames = _stream(CATALOGS[8])
        stream = b"".join(frames)
        cuts = _cuts(data, len(stream))
        got, buffer = [], b""
        for start, end in zip([0] + cuts, cuts + [len(stream)]):
            buffer += stream[start:end]
            while True:
                total = frame_length(buffer, limit=LIMIT)
                if total is None or len(buffer) < total:
                    break
                got.append(buffer[:total])
                buffer = buffer[total:]
        assert got == frames and buffer == b""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pump_reassembles_each_response_however_it_arrives(self, data):
        """One request in flight per peer: a response's bytes arrive in any
        pieces, and the next response only after the next request."""
        poller = MultiPoller()
        for frame in _stream(CATALOGS[64]):
            cuts = _cuts(data, len(frame))
            pieces = [frame[a:b] for a, b in zip([0] + cuts, cuts + [len(frame)])]
            state = _InFlight("peer", _Client(_Socket(pieces)), None, 0.0)
            outcomes = {}
            pumps = 0
            while not poller._pump(state, outcomes):
                pumps += 1
            assert pumps == len(pieces) - 1
            assert outcomes["peer"].error is None
            assert outcomes["peer"].result == frame


_series = st.builds(
    SeriesRows,
    st.integers(-2**40, 2**40),
    st.integers(0, 5).flatmap(lambda rows: st.lists(
        st.lists(st.floats(allow_nan=False), min_size=8, max_size=8),
        min_size=rows, max_size=rows,
    )),
    st.floats(allow_nan=False),
)


class TestSeriesRowsIsItsDict:
    @settings(max_examples=200, deadline=None)
    @given(_series, st.booleans())
    def test_it_compares_reads_and_encodes_as_its_dict(self, series, traced):
        seconds = list(range(series.first, series.first + len(series.rows)))
        as_dict = {"seconds": seconds, "vectors": series.rows,
                   "watermark": series.watermark}
        assert series == as_dict and as_dict == series and dict(series) == as_dict
        assert list(series) == ["seconds", "vectors", "watermark"]
        assert [series[key] for key in series] == list(as_dict.values())
        assert encode_frame({"result": series}) == encode_frame({"result": as_dict})
        assert json.loads(encode_frame({"result": series})[_LENGTH.size:]) == {
            "result": as_dict
        }
        # The frame a plan packs, read by the plan and by the general
        # decoder: the same SeriesRows, equal to the dict.
        trace = TraceContext.new_root().to_wire() if traced else None
        frame = wire_for(CATALOGS[8]).plans["collect"].pack(
            7, series, b"" if trace is None else _pack_trace(trace)
        )
        general, _ = decode_message(frame, "", CATALOGS[8])
        assert general["result"] == as_dict
        assert_same(outcome(wire_for(CATALOGS[8]).plans["collect"].result, frame, 7),
                    ("ok", general["result"]))
