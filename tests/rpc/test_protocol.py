"""Tests for the wire protocol and byte accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.rpc import (
    ByteCounter,
    ProtocolError,
    SEGMENT_PAYLOAD_BYTES,
    WIRE_HEADER_BYTES,
    decode_frame,
    encode_frame,
    make_error,
    make_hello,
    make_request,
    make_response,
    make_welcome,
    wire_bytes,
)


class TestFraming:
    def test_round_trip(self):
        payload = {"id": 1, "method": "sample", "params": {"now": 5.0}}
        decoded, consumed = decode_frame(encode_frame(payload))
        assert decoded == payload
        assert consumed == len(encode_frame(payload))

    def test_decode_with_trailing_data(self):
        frame = encode_frame({"a": 1})
        decoded, consumed = decode_frame(frame + b"extra")
        assert decoded == {"a": 1}
        assert consumed == len(frame)

    def test_short_length_prefix_rejected(self):
        with pytest.raises(ProtocolError, match="length prefix"):
            decode_frame(b"\x00\x00")

    def test_truncated_body_rejected(self):
        frame = encode_frame({"a": 1})
        with pytest.raises(ProtocolError, match="short frame"):
            decode_frame(frame[:-2])

    def test_non_json_body_rejected(self):
        bad = b"\x00\x00\x00\x03abc"
        with pytest.raises(ProtocolError, match="bad frame payload"):
            decode_frame(bad)

    def test_non_object_payload_rejected(self):
        import json
        import struct

        body = json.dumps([1, 2, 3]).encode()
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(struct.pack(">I", len(body)) + body)

    def test_oversized_declared_length_rejected(self):
        import struct

        with pytest.raises(ProtocolError, match="exceeds maximum"):
            decode_frame(struct.pack(">I", 1 << 30) + b"x")

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=16)),
            max_size=5,
        )
    )
    def test_property_round_trip_any_object(self, payload):
        decoded, _ = decode_frame(encode_frame(payload))
        assert decoded == payload


class TestMessageHelpers:
    def test_request_shape(self):
        assert make_request(3, "collect", {"now": 1.0}) == {
            "id": 3,
            "method": "collect",
            "params": {"now": 1.0},
        }

    def test_request_default_params(self):
        assert make_request(1, "x")["params"] == {}

    def test_response_and_error(self):
        assert make_response(2, [1, 2]) == {"id": 2, "result": [1, 2]}
        assert make_error(2, "bad") == {"id": 2, "error": "bad"}

    def test_hello_and_welcome_carry_version(self):
        from repro.rpc.protocol import PROTOCOL_VERSION

        assert make_hello("asdf")["version"] == PROTOCOL_VERSION
        welcome = make_welcome("sadc_rpcd", ["sample"])
        assert welcome["welcome"] == "sadc_rpcd"
        assert welcome["methods"] == ["sample"]

    def test_hello_welcome_negotiation_fields(self):
        # The hello always offers binary data frames and JSON; a welcome
        # names the codec with a catalog, and neither without one.
        assert make_hello("asdf")["codecs"] == ["bin", "json"]
        welcome = make_welcome("sadc_rpcd", ["sample"], metrics=["cpu_idle_pct"])
        assert welcome["codec"] == "bin"
        assert welcome["metrics"] == ["cpu_idle_pct"]
        welcome = make_welcome("strace_rpcd", ["trace"])
        assert "codec" not in welcome and "metrics" not in welcome


class TestWireEstimation:
    def test_zero_payload_zero_wire(self):
        assert wire_bytes(0) == 0

    def test_small_payload_one_segment(self):
        assert wire_bytes(100) == 100 + WIRE_HEADER_BYTES

    def test_large_payload_multiple_segments(self):
        size = SEGMENT_PAYLOAD_BYTES * 3 + 10
        assert wire_bytes(size) == size + 4 * WIRE_HEADER_BYTES


class TestByteCounter:
    def test_tx_rx_accumulate(self):
        counter = ByteCounter()
        counter.count_tx(100)
        counter.count_rx(200)
        assert counter.tx_payload == 100
        assert counter.rx_payload == 200
        assert counter.messages_sent == 1
        assert counter.messages_received == 1
        assert counter.total_wire == wire_bytes(100) + wire_bytes(200)

    def test_static_flag_routes_to_static_wire(self):
        counter = ByteCounter()
        counter.count_tx(100, static=True)
        counter.count_rx(50)
        assert counter.static_wire == wire_bytes(100)
        assert counter.dynamic_wire == wire_bytes(50)

    def test_handshake_counts_as_static(self):
        counter = ByteCounter()
        counter.count_handshake()
        assert counter.static_wire > 0
        assert counter.dynamic_wire == 0
