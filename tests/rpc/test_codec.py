"""Tests for the binary codec v2: packing, negotiation, interop."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.rpc import (
    MetricRow,
    ProtocolError,
    RpcClient,
    RpcServer,
    TraceContext,
)
from repro.rpc.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    MAGIC,
    decode_message,
    encode_request_frame,
    encode_response_frame,
    frame_length,
    is_binary_payload,
)
from repro.rpc.protocol import _LENGTH, decode_frame, encode_frame

from .helpers import JsonPeer

CATALOG = ("cpu_idle_pct", "loadavg_1", "disk_sectors_written_per_s")


def _window(ts: float, idle: float) -> dict:
    return {
        "timestamp": ts,
        "node_name": "node-01",
        "node": {
            "cpu_idle_pct": idle,
            "loadavg_1": 1.5,
            "disk_sectors_written_per_s": 640.0,
        },
        "emit_wall": ts + 0.001,
    }


class TestRequestRoundTrip:
    def test_binary_sample_request(self):
        frame = encode_request_frame(
            7, "sample", {"now": 12.5}, None, CODEC_BINARY
        )
        assert is_binary_payload(frame[_LENGTH.size:])
        payload, consumed = decode_message(frame)
        assert consumed == len(frame)
        assert payload == {"id": 7, "method": "sample", "params": {"now": 12.5}}

    def test_binary_poll_many_request_with_trace(self):
        trace = TraceContext.new_root(origin="central@pid1").to_wire()
        frame = encode_request_frame(
            9, "poll_many", {"now": 3.0, "max_windows": 32},
            trace, CODEC_BINARY,
        )
        assert is_binary_payload(frame[_LENGTH.size:])
        payload, _ = decode_message(frame)
        assert payload["params"] == {"now": 3.0, "max_windows": 32}
        assert payload["trace"]["id"] == trace["id"]
        assert payload["trace"]["span"] == trace["span"]
        assert payload["trace"]["origin"] == "central@pid1"

    def test_child_trace_carries_parent(self):
        root = TraceContext.new_root(origin="o")
        child = root.child()
        frame = encode_request_frame(
            1, "sample", {}, child.to_wire(), CODEC_BINARY
        )
        payload, _ = decode_message(frame)
        assert payload["trace"]["parent"] == root.span_id

    def test_json_codec_always_json(self):
        frame = encode_request_frame(1, "sample", {"now": 1.0}, None, CODEC_JSON)
        assert not is_binary_payload(frame[_LENGTH.size:])
        payload, _ = decode_message(frame)
        assert payload["method"] == "sample"

    def test_unpackable_method_falls_back_to_json(self):
        frame = encode_request_frame(
            2, "inject", {"kind": "cpuhog"}, None, CODEC_BINARY
        )
        assert not is_binary_payload(frame[_LENGTH.size:])
        payload, _ = decode_message(frame)
        assert payload["params"] == {"kind": "cpuhog"}

    def test_extra_params_fall_back_to_json(self):
        frame = encode_request_frame(
            3, "sample", {"now": 1.0, "verbose": True}, None, CODEC_BINARY
        )
        assert not is_binary_payload(frame[_LENGTH.size:])

    def test_non_hex_trace_falls_back_to_json(self):
        trace = {"id": "not-hex!", "span": "nope", "origin": "x"}
        frame = encode_request_frame(4, "sample", {}, trace, CODEC_BINARY)
        assert not is_binary_payload(frame[_LENGTH.size:])
        payload, _ = decode_message(frame)
        assert payload["trace"] == trace


class TestResponseRoundTrip:
    def test_poll_many_batch(self):
        windows = [_window(10.0 + i, 40.0 + i) for i in range(5)]
        payload = {
            "id": 3,
            "result": {"node_name": "node-01", "windows": windows},
        }
        frame = encode_response_frame(
            payload, method="poll_many", metric_names=CATALOG,
            codec=CODEC_BINARY,
        )
        assert is_binary_payload(frame[_LENGTH.size:])
        decoded, consumed = decode_message(frame, metric_names=CATALOG)
        assert consumed == len(frame)
        assert decoded == payload

    def test_single_sample(self):
        payload = {"id": 4, "result": _window(5.0, 33.0)}
        frame = encode_response_frame(
            payload, method="sample", metric_names=CATALOG,
            codec=CODEC_BINARY,
        )
        assert is_binary_payload(frame[_LENGTH.size:])
        decoded, _ = decode_message(frame, metric_names=CATALOG)
        assert decoded == payload

    def test_priming_none_result(self):
        payload = {"id": 5, "result": None}
        frame = encode_response_frame(
            payload, method="sample", metric_names=CATALOG,
            codec=CODEC_BINARY,
        )
        assert is_binary_payload(frame[_LENGTH.size:])
        decoded, _ = decode_message(frame, metric_names=CATALOG)
        assert decoded == payload

    def test_error_response_binary(self):
        payload = {"id": 6, "error": "no such method 'bogus'"}
        frame = encode_response_frame(
            payload, method="bogus", metric_names=CATALOG,
            codec=CODEC_BINARY,
        )
        assert is_binary_payload(frame[_LENGTH.size:])
        decoded, _ = decode_message(frame, metric_names=CATALOG)
        assert decoded == payload

    def test_catalog_mismatch_falls_back_to_json(self):
        window = _window(1.0, 50.0)
        window["node"]["extra_metric"] = 1.0
        payload = {
            "id": 7,
            "result": {"node_name": "n", "windows": [window]},
        }
        frame = encode_response_frame(
            payload, method="poll_many", metric_names=CATALOG,
            codec=CODEC_BINARY,
        )
        assert not is_binary_payload(frame[_LENGTH.size:])
        decoded, _ = decode_message(frame, metric_names=CATALOG)
        assert decoded == payload

    @pytest.mark.parametrize("place", ["single", "window", "batch"])
    def test_keys_the_layout_cannot_carry_fall_back_to_json(self, place):
        """A packed frame holds a row, two stamps and a name: a result
        with anything else used to lose it without an error."""
        window = _window(2.0, 45.0)
        extra = {"nics": {"eth0": {"rxkb_per_s": 1.0}}, "processes": {"42": {}}}
        if place == "single":
            result, method = {**window, **extra}, "sample"
        elif place == "window":
            result = {"node_name": "node-01", "windows": [{**window, **extra}]}
            method = "poll_many"
        else:
            result = {"node_name": "node-01", "windows": [window], **extra}
            method = "poll_many"
        payload = {"id": 11, "result": result}
        frame = encode_response_frame(
            payload, method=method, metric_names=CATALOG, codec=CODEC_BINARY,
        )
        assert not is_binary_payload(frame[_LENGTH.size:])
        decoded, _ = decode_message(frame, metric_names=CATALOG)
        assert decoded == payload

    def test_non_sample_result_falls_back_to_json(self):
        payload = {"id": 8, "result": {"acknowledged": True}}
        frame = encode_response_frame(
            payload, method="poll_many", metric_names=CATALOG,
            codec=CODEC_BINARY,
        )
        assert not is_binary_payload(frame[_LENGTH.size:])

    def test_binary_batch_is_smaller_than_json(self):
        windows = [_window(float(i), 50.0) for i in range(10)]
        payload = {"id": 1, "result": {"node_name": "n", "windows": windows}}
        binary = encode_response_frame(
            payload, "poll_many", CATALOG, CODEC_BINARY
        )
        json_frame = encode_frame(payload)
        assert len(binary) < len(json_frame)


STATES = tuple(f"state{i}" for i in range(8))

_counts = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.integers(0, 50)


@st.composite
def _series(draw):
    """A ``collect`` result as ``HadoopLogDaemon`` shapes it."""
    rows = draw(st.integers(0, 40))
    first = draw(st.integers(-5, 2**40))
    return {
        "seconds": list(range(first, first + rows)),
        "vectors": [
            draw(st.lists(_counts, min_size=len(STATES), max_size=len(STATES)))
            for _ in range(rows)
        ],
        "watermark": draw(st.floats(allow_nan=False)),
    }


class TestSeriesRoundTrip:
    """The ``collect`` result of ``hadoop_log_rpcd`` on codec v2."""

    def _encode(self, result, trace=None, request_id=21):
        payload = {"id": request_id, "result": result}
        if trace is not None:
            payload["trace"] = trace
        frame = encode_response_frame(
            payload, method="collect", metric_names=STATES, codec=CODEC_BINARY,
        )
        return payload, frame

    def test_collect_request_is_binary(self):
        frame = encode_request_frame(7, "collect", {"now": 12.0}, None, CODEC_BINARY)
        assert len(frame) == _LENGTH.size + 16
        payload, _ = decode_message(frame)
        assert payload == {"id": 7, "method": "collect", "params": {"now": 12.0}}

    @given(_series(), st.booleans())
    def test_decoded_equals_json_decoded(self, result, traced):
        trace = TraceContext.new_root(origin="central@pid1").child().to_wire()
        payload, frame = self._encode(result, trace if traced else None)
        assert is_binary_payload(frame[_LENGTH.size:])
        decoded, consumed = decode_message(frame, metric_names=STATES)
        via_json, _ = decode_message(encode_frame(payload))
        assert consumed == len(frame)
        assert decoded == via_json == payload
        assert all(type(s) is int for s in decoded["result"]["seconds"])
        assert all(
            type(v) is float for row in decoded["result"]["vectors"] for v in row
        )

    def test_one_row_is_a_fixed_size_frame(self):
        _, frame = self._encode(
            {"seconds": [598], "vectors": [[0.0] * 8], "watermark": 597.5}
        )
        assert len(frame) == _LENGTH.size + 25 + 8 * 8
        _, empty = self._encode({"seconds": [], "vectors": [], "watermark": -1.0})
        assert len(empty) == _LENGTH.size + 25

    @pytest.mark.parametrize("result", [
        {"seconds": [1, 2], "vectors": [[0.0] * 8, [0.0] * 7], "watermark": 1.0},
        {"seconds": [1, 2], "vectors": [[0.0] * 7, [0.0] * 9], "watermark": 1.0},
        {"seconds": [1, 2], "vectors": [[0.0] * 8], "watermark": 1.0},
        {"seconds": [1, 3], "vectors": [[0.0] * 8] * 2, "watermark": 1.0},
        {"seconds": [2, 1], "vectors": [[0.0] * 8] * 2, "watermark": 1.0},
        {"seconds": [1.5], "vectors": [[0.0] * 8], "watermark": 1.0},
        {"seconds": ["1"], "vectors": [[0.0] * 8], "watermark": 1.0},
        {"seconds": [1], "vectors": [["a"] + [0.0] * 7], "watermark": 1.0},
        {"seconds": [1], "vectors": [[None] * 8], "watermark": 1.0},
        {"seconds": [1], "vectors": [3], "watermark": 1.0},
        {"seconds": [1], "vectors": [[0.0] * 8], "watermark": None},
        {"seconds": [1], "vectors": [[0.0] * 8]},
        {"seconds": [1], "vectors": [[0.0] * 8], "watermark": 1.0, "node": "n"},
        {"seconds": [2**63], "vectors": [[0.0] * 8], "watermark": 1.0},
        {"seconds": [1], "vectors": [[10**400] + [0.0] * 7], "watermark": 1.0},
        {"seconds": 5, "vectors": [[0.0] * 8], "watermark": 1.0},
    ])
    def test_what_the_layout_cannot_carry_falls_back_to_json(self, result):
        payload, frame = self._encode(result)
        assert not is_binary_payload(frame[_LENGTH.size:])
        decoded, _ = decode_message(frame, metric_names=STATES)
        assert decoded == payload

    def test_more_rows_than_a_u16_fall_back_to_json(self):
        rows = 0x10000
        payload, frame = self._encode({
            "seconds": list(range(rows)), "vectors": [[0.0] * 8] * rows,
            "watermark": 1.0,
        })
        assert not is_binary_payload(frame[_LENGTH.size:])

    def test_series_without_a_catalog_is_json(self):
        payload = {"id": 1, "result": {
            "seconds": [1], "vectors": [[0.0] * 8], "watermark": 1.0,
        }}
        frame = encode_response_frame(payload, "collect", (), CODEC_BINARY)
        assert not is_binary_payload(frame[_LENGTH.size:])

    @given(_series(), st.data())
    def test_truncated_and_padded_frames_raise(self, result, data):
        _, frame = self._encode(result)
        body = frame[_LENGTH.size:]
        cut = data.draw(st.integers(1, len(body) - 1))
        for bad in (body[:cut], body + b"\x00" * data.draw(st.integers(1, 9))):
            with pytest.raises(ProtocolError, match="truncated|trailing"):
                decode_message(_LENGTH.pack(len(bad)) + bad, metric_names=STATES)

    @given(st.binary(max_size=200))
    def test_garbage_behind_a_series_head_raises_or_decodes(self, tail):
        body = bytes([MAGIC, 4]) + tail
        frame = _LENGTH.pack(len(body)) + body
        try:
            decoded, consumed = decode_message(frame, metric_names=STATES)
        except ProtocolError:
            return
        assert consumed == len(frame)
        rows = decoded["result"]["vectors"]
        assert len(rows) == len(decoded["result"]["seconds"])
        assert all(len(row) == len(STATES) for row in rows)

    def test_series_frame_without_catalog_rejected(self):
        _, frame = self._encode(
            {"seconds": [1], "vectors": [[0.0] * 8], "watermark": 1.0}
        )
        with pytest.raises(ProtocolError, match="no interned metric catalog"):
            decode_message(frame, metric_names=())

    def test_row_count_that_disagrees_with_the_body_rejected(self):
        _, frame = self._encode(
            {"seconds": [1, 2], "vectors": [[0.0] * 8] * 2, "watermark": 1.0}
        )
        body = bytearray(frame[_LENGTH.size:])
        body[23:25] = (3).to_bytes(2, "big")
        with pytest.raises(ProtocolError, match="truncated"):
            decode_message(_LENGTH.pack(len(body)) + bytes(body), metric_names=STATES)
        body[23:25] = (1).to_bytes(2, "big")
        with pytest.raises(ProtocolError, match="trailing"):
            decode_message(_LENGTH.pack(len(body)) + bytes(body), metric_names=STATES)


def _row_window(row, names=CATALOG, ts=7.0, emit=7.5, node="node-01"):
    return {
        "timestamp": ts, "node_name": node,
        "node": MetricRow(names, row), "emit_wall": emit,
    }


def _trace_block(trace):
    """The documented trace block, built part by part."""
    parent = trace.get("parent")
    origin = trace.get("origin", "").encode("utf-8")
    return (
        bytes([1 if parent else 0])
        + bytes.fromhex(trace["id"]) + bytes.fromhex(trace["span"])
        + (bytes.fromhex(parent) if parent else b"")
        + bytes([len(origin)]) + origin
    )


def _reference_request(request_id, method_id, now, maxw, trace=None):
    """The request layout of the module docstring, a field at a time."""
    flags = (1 if trace else 0) | (2 if now is not None else 0) | (
        4 if maxw is not None else 0)
    body = struct.pack(">BBIBB", MAGIC, 1, request_id, flags, method_id)
    if trace:
        body += _trace_block(trace)
    if now is not None:
        body += struct.pack(">d", now)
    if maxw is not None:
        body += struct.pack(">H", maxw)
    return _LENGTH.pack(len(body)) + body


def _reference_sample(request_id, name, ts, emit, values, trace=None):
    """The single-sample response layout, a field at a time."""
    raw = name.encode("utf-8")
    body = struct.pack(">BBIB", MAGIC, 2, request_id, 2 | (1 if trace else 0))
    if trace:
        body += _trace_block(trace)
    body += bytes([len(raw)]) + raw + struct.pack(">H", 1)
    body += struct.pack(">dd", ts, emit)
    body += b"".join(struct.pack(">d", v) for v in values)
    return _LENGTH.pack(len(body)) + body


def _bits(values):
    return [struct.pack(">d", v) for v in values]


_f64 = st.floats(allow_nan=False, width=64)
_TRACE = TraceContext.new_root(origin="central@pid1").child().to_wire()


class TestFixedLayouts:
    """The three frames of the hot round trip, byte for byte.

    Golden bytes pin Table 4's per-call sizes to the layouts the module
    docstring documents; the reference builders above are the flag walk
    the precompiled layouts replaced.
    """

    def test_golden_request(self):
        frame = encode_request_frame(7, "sample", {"now": 12.5}, None, CODEC_BINARY)
        assert frame.hex() == (
            "00000010" "a5" "01" "00000007" "02" "01" "4029000000000000"
        )
        frame = encode_request_frame(
            9, "poll_many", {"now": 3.0, "max_windows": 32}, None, CODEC_BINARY
        )
        assert frame.hex() == (
            "00000012" "a5" "01" "00000009" "06" "02"
            "4008000000000000" "0020"
        )
        assert encode_request_frame(
            1, "collect", {}, None, CODEC_BINARY
        ).hex() == "00000008" "a5" "01" "00000001" "00" "03"
        assert encode_request_frame(
            1, "poll_many", {"max_windows": 70000}, None, CODEC_BINARY
        ).hex() == "0000000a" "a5" "01" "00000001" "04" "02" "ffff"

    def test_golden_single_sample(self):
        row = np.array([1.0, -2.0, 0.5])
        frame = encode_response_frame(
            {"id": 4, "result": _row_window(row, node="n1")},
            "sample", CATALOG, CODEC_BINARY,
        )
        assert frame.hex() == (
            "00000034" "a5" "02" "00000004" "02" "02" "6e31" "0001"
            "401c000000000000" "401e000000000000"
            "3ff0000000000000" "c000000000000000" "3fe0000000000000"
        )

    def test_golden_series(self):
        frame = encode_response_frame(
            {"id": 5, "result": {
                "seconds": [598], "vectors": [[1.0] + [0.0] * 7],
                "watermark": 597.5,
            }}, "collect", STATES, CODEC_BINARY,
        )
        assert frame.hex() == (
            "00000059" "a5" "04" "00000005" "00"
            "4082ac0000000000" "0000000000000256" "0001"
            "3ff0000000000000" + "0000000000000000" * 7
        )

    @given(
        st.integers(0, 2**32 - 1), st.sampled_from(["sample", "poll_many", "collect"]),
        st.none() | _f64, st.none() | st.integers(0, 0xFFFF), st.booleans(),
    )
    def test_request_layout_equals_the_walk_and_json(
        self, request_id, method, now, maxw, traced
    ):
        params = {}
        if now is not None:
            params["now"] = now
        if maxw is not None:
            params["max_windows"] = maxw
        trace = _TRACE if traced else None
        frame = encode_request_frame(request_id, method, params, trace, CODEC_BINARY)
        method_id = {"sample": 1, "poll_many": 2, "collect": 3}[method]
        assert frame == _reference_request(request_id, method_id, now, maxw, trace)
        decoded, consumed = decode_message(frame)
        via_json, _ = decode_message(
            encode_request_frame(request_id, method, params, trace, CODEC_JSON)
        )
        assert consumed == len(frame)
        assert decoded == via_json
        assert decoded["params"] == params

    @given(
        st.integers(0, 2**32 - 1), st.text(max_size=40),
        _f64, _f64, st.lists(_f64, min_size=3, max_size=3), st.booleans(),
    )
    def test_sample_layout_equals_the_walk_and_json(
        self, request_id, name, ts, emit, values, traced
    ):
        window = _row_window(np.array(values), ts=ts, emit=emit, node=name)
        payload = {"id": request_id, "result": window}
        if traced:
            payload["trace"] = _TRACE
        frame = encode_response_frame(payload, "sample", CATALOG, CODEC_BINARY)
        assert frame == _reference_sample(
            request_id, name, ts, emit, values, _TRACE if traced else None
        )
        from_dict = dict(payload, result=dict(window, node=dict(window["node"])))
        assert frame == encode_response_frame(
            from_dict, "sample", CATALOG, CODEC_BINARY
        )
        decoded, consumed = decode_message(frame, metric_names=CATALOG)
        via_json, _ = decode_message(encode_frame(payload))
        assert consumed == len(frame)
        assert decoded == via_json == payload
        node = decoded["result"]["node"]
        assert type(node) is MetricRow and node.names is CATALOG
        assert node.row.dtype == np.float64 and node.row.tolist() == values

    def _fixed_frames(self):
        return [
            (encode_request_frame(1, "sample", {"now": 1.0}, None, CODEC_BINARY), ()),
            (encode_request_frame(1, "collect", {}, None, CODEC_BINARY), ()),
            (encode_request_frame(
                1, "poll_many", {"now": 1.0, "max_windows": 4}, None, CODEC_BINARY
            ), ()),
            (encode_response_frame(
                {"id": 1, "result": _row_window(np.arange(3.0))},
                "sample", CATALOG, CODEC_BINARY,
            ), CATALOG),
            (encode_response_frame(
                {"id": 1, "result": {
                    "seconds": [3, 4], "vectors": [[0.0] * 8] * 2, "watermark": 2.0,
                }}, "collect", STATES, CODEC_BINARY,
            ), STATES),
        ]

    def test_every_truncation_and_padding_raises(self):
        for frame, names in self._fixed_frames():
            body = frame[_LENGTH.size:]
            decode_message(frame, metric_names=names)
            for cut in range(1, len(body)):
                bad = _LENGTH.pack(cut) + body[:cut]
                with pytest.raises(ProtocolError, match="truncated|trailing"):
                    decode_message(bad, metric_names=names)
            for pad in (b"\x00", b"\xa5", b"\x01"):
                bad = _LENGTH.pack(len(body) + 1) + body + pad
                with pytest.raises(ProtocolError, match="truncated|trailing"):
                    decode_message(bad, metric_names=names)

    def test_a_frame_followed_by_another_decodes_alone(self):
        for frame, names in self._fixed_frames():
            alone, consumed = decode_message(frame, metric_names=names)
            followed, also = decode_message(frame + frame, metric_names=names)
            assert consumed == also == len(frame) and alone == followed

    def test_fixed_frames_honour_the_frame_limit(self):
        for frame, names in self._fixed_frames():
            with pytest.raises(ProtocolError, match="exceeds maximum"):
                decode_message(frame, metric_names=names, limit=len(frame) - 5)
        with pytest.raises(ProtocolError, match="frame too large"):
            encode_request_frame(1, "sample", {"now": 1.0}, None, CODEC_BINARY, limit=8)
        with pytest.raises(ProtocolError, match="frame too large"):
            encode_response_frame(
                {"id": 1, "result": _row_window(np.arange(3.0))},
                "sample", CATALOG, CODEC_BINARY, limit=40,
            )

    def test_row_against_another_catalog_goes_name_by_name(self):
        other = ("loadavg_1", "disk_sectors_written_per_s", "cpu_idle_pct")
        window = _row_window(np.array([1.5, 640.0, 33.0]), names=other)
        frame = encode_response_frame(
            {"id": 2, "result": window}, "sample", CATALOG, CODEC_BINARY
        )
        decoded, _ = decode_message(frame, metric_names=CATALOG)
        assert decoded["result"]["node"].row.tolist() == [33.0, 1.5, 640.0]
        assert decoded["result"]["node"] == window["node"]
        # An equal but distinct catalog tuple reads the same.
        same = _row_window(np.array([33.0, 1.5, 640.0]), names=tuple(list(CATALOG)))
        assert frame == encode_response_frame(
            {"id": 2, "result": same}, "sample", CATALOG, CODEC_BINARY
        )
        # Names the connection never interned cannot ride a row.
        stranger = _row_window(np.zeros(3), names=("a", "b", "c"))
        frame = encode_response_frame(
            {"id": 2, "result": stranger}, "sample", CATALOG, CODEC_BINARY
        )
        assert not is_binary_payload(frame[_LENGTH.size:])
        assert decode_message(frame)[0]["result"]["node"] == {"a": 0, "b": 0, "c": 0}

    @pytest.mark.parametrize("row", [
        np.array([1, 2, 3], dtype=np.int64),
        np.array([1.0, 2.0, 3.0], dtype=np.float32),
        np.array([1.0, 2.0, 3.0], dtype=">f8"),
        np.arange(1.0, 7.0)[::2] - np.array([0.0, 1.0, 2.0]),
        np.array([[1.0, 9.0], [2.0, 9.0], [3.0, 9.0]])[:, 0],
    ], ids=["int64", "float32", "big-endian", "computed", "non-contiguous"])
    def test_any_numeric_row_ships_as_float64(self, row):
        frame = encode_response_frame(
            {"id": 1, "result": _row_window(row)}, "sample", CATALOG, CODEC_BINARY
        )
        assert frame == _reference_sample(1, "node-01", 7.0, 7.5, [1.0, 2.0, 3.0])

    def test_a_row_of_the_wrong_shape_is_no_metric_row(self):
        for row in (np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.float64(1.0)):
            with pytest.raises(ValueError, match="metric names"):
                MetricRow(CATALOG, row)

    def test_nan_and_infinities_cross_bit_exact(self):
        quiet = struct.unpack(">d", bytes.fromhex("7ff8000000000abc"))[0]
        negative = struct.unpack(">d", bytes.fromhex("fff8000000000001"))[0]
        for values in ([quiet, math.inf, -math.inf], [negative, -0.0, 5e-324]):
            row = np.array(values)
            frame = encode_response_frame(
                {"id": 1, "result": _row_window(row)}, "sample", CATALOG,
                CODEC_BINARY,
            )
            assert frame[-24:] == b"".join(_bits(values))
            decoded, _ = decode_message(frame, metric_names=CATALOG)
            assert _bits(decoded["result"]["node"].row.tolist()) == _bits(values)
            batch = encode_response_frame(
                {"id": 1, "result": {"node_name": "n", "windows": [_row_window(row)] * 2}},
                "poll_many", CATALOG, CODEC_BINARY,
            )
            decoded, _ = decode_message(batch, metric_names=CATALOG)
            for window in decoded["result"]["windows"]:
                assert _bits(window["node"].row.tolist()) == _bits(values)

    def test_node_name_of_255_bytes_is_binary_256_is_json(self):
        for length, binary in ((255, True), (256, False)):
            payload = {"id": 1, "result": _row_window(np.arange(3.0), node="n" * length)}
            frame = encode_response_frame(payload, "sample", CATALOG, CODEC_BINARY)
            assert is_binary_payload(frame[_LENGTH.size:]) is binary
            decoded, _ = decode_message(frame, metric_names=CATALOG)
            assert decoded == payload
        # Bytes, not characters: 128 two-byte characters do not fit.
        payload = {"id": 1, "result": _row_window(np.arange(3.0), node="\u00e9" * 128)}
        frame = encode_response_frame(payload, "sample", CATALOG, CODEC_BINARY)
        assert not is_binary_payload(frame[_LENGTH.size:])

    def test_batches_carry_rows_too(self):
        windows = [_row_window(np.arange(3.0) + i, ts=float(i)) for i in range(4)]
        payload = {"id": 3, "result": {"node_name": "node-01", "windows": windows}}
        frame = encode_response_frame(payload, "poll_many", CATALOG, CODEC_BINARY)
        as_dicts = {"id": 3, "result": {"node_name": "node-01", "windows": [
            dict(w, node=dict(w["node"])) for w in windows
        ]}}
        assert frame == encode_response_frame(
            as_dicts, "poll_many", CATALOG, CODEC_BINARY
        )
        decoded, _ = decode_message(frame, metric_names=CATALOG)
        assert decoded == payload == as_dicts
        assert all(
            type(w["node"]) is MetricRow for w in decoded["result"]["windows"]
        )


class TestMetricRow:
    ROW = MetricRow(CATALOG, np.array([42.0, 1.5, 640.0]))
    AS_DICT = {
        "cpu_idle_pct": 42.0, "loadavg_1": 1.5,
        "disk_sectors_written_per_s": 640.0,
    }

    def test_reads_as_the_dict_it_stands_for(self):
        row = self.ROW
        assert row == self.AS_DICT and self.AS_DICT == row
        assert row != dict(self.AS_DICT, loadavg_1=2.0)
        assert row == MetricRow(tuple(reversed(CATALOG)), np.array([640.0, 1.5, 42.0]))
        assert tuple(row) == CATALOG and len(row) == 3
        assert row["loadavg_1"] == 1.5 and type(row["loadavg_1"]) is float
        assert row.get("cpu_idle_pct", 100.0) == 42.0
        assert row.get("missing", 100.0) == 100.0
        assert "loadavg_1" in row and "missing" not in row
        with pytest.raises(KeyError):
            row["missing"]
        assert list(row.items()) == list(self.AS_DICT.items())
        assert dict(row) == self.AS_DICT

    def test_is_read_only(self):
        with pytest.raises(TypeError):
            self.ROW["loadavg_1"] = 2.0

    def test_json_encodes_as_the_dict(self):
        payload = {"id": 1, "result": {"node": self.ROW}}
        frame = encode_frame(payload)
        assert frame == encode_frame({"id": 1, "result": {"node": self.AS_DICT}})
        assert decode_frame(frame)[0] == payload
        assert json.loads(frame[_LENGTH.size:])["result"]["node"] == self.AS_DICT
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_frame({"id": 1, "result": {1, 2}})

    def test_values_do_no_per_name_lookup(self):
        class Counting(MetricRow):
            lookups = 0

            def __getitem__(self, name):
                Counting.lookups += 1
                return super().__getitem__(name)

        row = Counting(CATALOG, np.array([42.0, 1.5, 640.0]))
        assert row.values() == [42.0, 1.5, 640.0]
        assert list(row.items())[1] == ("loadavg_1", 1.5)
        assert Counting.lookups == 0


class TestMalformedFrames:
    def _binary_frame(self, body: bytes) -> bytes:
        return _LENGTH.pack(len(body)) + body

    def test_truncated_binary_body(self):
        good = encode_request_frame(1, "sample", {"now": 1.0}, None,
                                    CODEC_BINARY)
        body = good[_LENGTH.size:-2]
        with pytest.raises(ProtocolError, match="truncated binary frame"):
            decode_message(self._binary_frame(body), peer="10.0.0.9:1234")

    def test_error_carries_peer(self):
        good = encode_request_frame(1, "sample", {"now": 1.0}, None,
                                    CODEC_BINARY)
        body = good[_LENGTH.size:-2]
        with pytest.raises(ProtocolError, match="10.0.0.9:1234"):
            decode_message(self._binary_frame(body), peer="10.0.0.9:1234")

    def test_trailing_bytes_rejected(self):
        good = encode_request_frame(1, "sample", {"now": 1.0}, None,
                                    CODEC_BINARY)
        body = good[_LENGTH.size:] + b"\x00\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            decode_message(self._binary_frame(body))

    def test_unknown_method_id_rejected(self):
        body = struct.pack(">BBIB", MAGIC, 1, 1, 0) + bytes([250])
        with pytest.raises(ProtocolError, match="unknown binary method id"):
            decode_message(self._binary_frame(body))

    def test_unknown_kind_rejected(self):
        body = struct.pack(">BBIB", MAGIC, 9, 1, 0)
        with pytest.raises(ProtocolError, match="unknown binary message kind"):
            decode_message(self._binary_frame(body))

    def test_sample_frame_without_catalog_rejected(self):
        payload = {"id": 1, "result": _window(1.0, 50.0)}
        frame = encode_response_frame(payload, "sample", CATALOG, CODEC_BINARY)
        with pytest.raises(ProtocolError, match="no interned metric catalog"):
            decode_message(frame, metric_names=())

    def test_frame_length_incomplete_prefix(self):
        assert frame_length(b"\x00\x00") is None
        assert frame_length(b"") is None

    def test_frame_length_oversized_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds maximum"):
            frame_length(_LENGTH.pack(1 << 30))

    def test_frame_length_of_valid_frame(self):
        frame = encode_request_frame(1, "sample", {}, None, CODEC_BINARY)
        assert frame_length(frame) == len(frame)
        assert frame_length(frame + b"more") == len(frame)


class _NodeHandler:
    """Poll-shaped handler advertising an interned metric catalog."""

    metric_names = CATALOG

    def __init__(self):
        self.polls = 0

    def rpc_sample(self, now=None):
        self.polls += 1
        if self.polls == 1:
            return None  # priming
        return _window(float(now or 0.0), 42.0)

    def rpc_poll_many(self, now=None, max_windows=32):
        return {
            "node_name": "node-01",
            "windows": [_window(float(now or 0.0) + i, 42.0)
                        for i in range(3)],
        }

    def rpc_inject(self, kind, intensity=1.0):
        return {"node": "node-01", "fault": kind}


class TestLiveInterop:
    """Binary and JSON-only peers interoperate over real sockets."""

    def test_v2_client_v2_server_negotiates_binary(self):
        with RpcServer(_NodeHandler(), "sadc") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                assert client.codec == CODEC_BINARY
                assert client.metric_names == CATALOG
                assert client.call("sample", now=1.0) is None  # priming
                sample = client.call("sample", now=2.0)
                assert sample["node"]["cpu_idle_pct"] == 42.0
                batch = client.call("poll_many", now=3.0, max_windows=8)
                assert len(batch["windows"]) == 3
                assert batch["windows"][0]["node"]["loadavg_1"] == 1.5

    def test_v1_client_on_v2_server_stays_json(self):
        with RpcServer(_NodeHandler(), "sadc") as server:
            host, port = server.address
            with JsonPeer(host, port) as peer:
                assert "codec" not in peer.welcome
                assert "metrics" not in peer.welcome
                peer.call("sample", now=1.0)
                sample = peer.call("sample", now=2.0)
                assert sample["node"]["cpu_idle_pct"] == 42.0

    def test_both_codecs_return_identical_values(self):
        with RpcServer(_NodeHandler(), "sadc") as server:
            host, port = server.address
            with RpcClient(host, port) as v2:
                with JsonPeer(host, port) as v1:
                    v2.call("sample", now=1.0)
                    v1.call("sample", now=1.0)
                    a = v2.call("poll_many", now=5.0)
                    b = v1.call("poll_many", now=5.0)
                    assert a == b

    def test_binary_connection_moves_fewer_bytes(self):
        with RpcServer(_NodeHandler(), "sadc") as server:
            host, port = server.address
            with RpcClient(host, port) as v2:
                with JsonPeer(host, port) as v1:
                    for client in (v2, v1):
                        for i in range(5):
                            client.call("poll_many", now=float(i))
                    assert v2.counter.rx_payload < 0.5 * v1.rx_payload

    def test_non_poll_methods_work_over_binary_connection(self):
        with RpcServer(_NodeHandler(), "sadc") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                assert client.codec == CODEC_BINARY
                result = client.call("inject", kind="cpuhog", intensity=0.5)
                assert result == {"node": "node-01", "fault": "cpuhog"}

    def test_server_without_catalog_never_negotiates_binary(self):
        class Bare:
            def rpc_echo(self, value):
                return value

        with RpcServer(Bare(), "bare") as server:
            host, port = server.address
            with RpcClient(host, port) as client:
                assert client.codec == CODEC_JSON
                assert client.call("echo", value="x") == "x"
