"""Call plans against the codec's general path as it was (``codec_oracle``).

A plan packs, unpacks and answers the untraced ``sample`` / ``collect``
/ ``poll_many`` calls without the general functions.  Held here: on
seeded random results -- rows with NaN, -0.0, float32 or strided values,
rows in another catalog order, series of 0, 1 and 240 rows and one with
a gap, the priming ``None``, handlers raising ``TypeError`` or anything
else, extra keys that fall back to JSON -- every frame a plan builds is
byte-identical to the oracle's, every result it reads ``==`` the
oracle's and of the same types, and traced calls, which the general
functions keep, are the oracle's too.  The id-mismatch and frame-limit
checks still fire on the plan path.
"""

import math
import random
import struct

import numpy as np
import pytest

from repro.rpc import (
    InprocChannel,
    MetricRow,
    ProtocolError,
    RemoteError,
    RpcClient,
    RpcServer,
    TraceContext,
    set_max_frame_bytes,
)
from repro.rpc import codec
from repro.rpc.codec import (
    CODEC_BINARY,
    call_plans,
    decode_message,
    encode_request_frame,
    encode_response_frame,
    planned_answer,
)
from repro.rpc.protocol import intern_catalog, response_result
from repro.sysstat import NODE_METRICS

from . import codec_oracle as oracle
from .helpers import assert_same

LIMIT = 16 * 1024 * 1024
CATALOGS = {
    3: intern_catalog(("cpu_idle_pct", "loadavg_1", "disk_sectors_written_per_s")),
    8: intern_catalog(tuple(f"state{i}" for i in range(8))),
    64: intern_catalog(NODE_METRICS),
}
METHODS = ("sample", "collect", "poll_many")


# -- seeded random results -----------------------------------------------------

def random_value(rng):
    return rng.choice([
        rng.uniform(-1e6, 1e6), 0.0, -0.0, math.inf, -math.inf, math.nan,
        struct.unpack(">d", bytes.fromhex("7ff8000000000abc"))[0],
        struct.unpack(">d", bytes.fromhex("fff8000000000001"))[0],
        5e-324, float(rng.randint(-5, 5)),
    ])


def random_row(rng, names):
    n = len(names)
    values = [random_value(rng) for _ in range(n)]
    kind = rng.choice(["f64", "f32", "strided", "int", "big", "other-order", "dict"])
    if kind == "f64":
        return MetricRow(names, np.array(values))
    if kind == "f32":
        return MetricRow(names, np.array(values, dtype=np.float32))
    if kind == "strided":
        wide = np.zeros((n, 3))
        wide[:, 1] = values
        return MetricRow(names, wide[:, 1])
    if kind == "int":
        return MetricRow(names, np.array([rng.randint(-9, 9) for _ in range(n)]))
    if kind == "big":
        return MetricRow(names, np.array(values, dtype=">f8"))
    if kind == "other-order":
        order = list(range(n))
        rng.shuffle(order)
        return MetricRow(
            tuple(names[i] for i in order), np.array([values[i] for i in order])
        )
    return dict(zip(names, values))


def random_window(rng, names):
    window = {"timestamp": rng.uniform(0, 1e5)}
    window["node_name"] = rng.choice(
        ["", "slave07", "n" * rng.randint(1, 255), "été", "n" * 256]
    )
    window["node"] = random_row(rng, names)
    if rng.random() < 0.5:
        window["emit_wall"] = rng.uniform(1e9, 2e9)
    if rng.random() < 0.05:
        window["nics"] = {"eth0": {}}   # a key no layout carries: JSON
    return window


def random_series(rng, width):
    rows = rng.choice([0, 1, 1, 2, 5, 240])
    first = rng.randint(-3, 10**6)
    seconds = list(range(first, first + rows))
    if rows > 1 and rng.random() < 0.15:
        seconds[-1] += 1                # a gap: JSON
    return {
        "seconds": seconds,
        "vectors": [
            [rng.choice([0.0, 1.0, 2.0, 0.5, -0.0]) for _ in range(width)]
            for _ in range(rows)
        ],
        "watermark": rng.choice([-1.0, rng.uniform(0, 1e6)]),
    }


def random_result(rng, method, names):
    draw = rng.random()
    if draw < 0.08:
        return None                     # the priming call
    if draw < 0.14:
        return TypeError("rpc_x() got an unexpected keyword argument 'now'")
    if draw < 0.20:
        return rng.choice([RuntimeError("deliberate"), ValueError("bad row")])
    if method == "sample":
        return random_window(rng, names)
    if method == "collect":
        return random_series(rng, len(names))
    return {
        "node_name": rng.choice(["node-01", ""]),
        "windows": [random_window(rng, names) for _ in range(rng.randint(0, 4))],
    }


def random_params(rng, method):
    params = {"now": rng.choice([rng.uniform(0, 1e6), 7, 1.5])}
    if method == "poll_many" and rng.random() < 0.7:
        params["max_windows"] = rng.choice([1, 32, 70000, -4])
    if rng.random() < 0.05:
        params["verbose"] = True        # a param no layout carries: JSON
    return params


class Scripted:
    """A handler returning (or raising) whatever the case scripts."""

    def __init__(self, names):
        self.metric_names = names
        self.outcome = None
        self.seen = []

    def _answer(self, **params):
        self.seen.append(params)
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome

    def rpc_sample(self, now=None):
        return self._answer(now=now)

    def rpc_collect(self, now):
        return self._answer(now=now)

    def rpc_poll_many(self, now=None, max_windows=32):
        return self._answer(now=now, max_windows=max_windows)


def cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        method = rng.choice(METHODS)
        names = CATALOGS[8] if method == "collect" else CATALOGS[rng.choice([3, 64])]
        yield (rng.randint(1, 2**32 - 1), method, random_params(rng, method),
               random_result(rng, method, names), names)


def oracle_round_trip(handler, request_id, method, params, names, trace=None):
    """The parent's channel: encode -> decode -> dispatch -> encode.  A
    traced call's serving span is a child, as the channel's is."""
    frame = oracle.encode_request_frame(
        request_id, method, params, trace, CODEC_BINARY
    )
    request, _ = oracle.decode_message(frame)
    serve = None
    if trace is not None:
        serve = TraceContext.from_wire(trace).child(origin="svc@node@inproc")
    response = oracle.encode_response_frame(
        oracle.dispatch(handler, request, serve), method, names, CODEC_BINARY
    )
    return frame, response


def oracle_result(response, request_id, names):
    payload, _ = oracle.decode_message(response, metric_names=names)
    return response_result(payload, request_id)


def general_result(response, request_id, names):
    return response_result(
        decode_message(response, metric_names=names)[0], request_id
    )


def outcome_of(call, *args, **kwargs):
    try:
        return "ok", call(*args, **kwargs)
    except RemoteError as exc:
        return "remote", str(exc)


# -- the parity ---------------------------------------------------------------

class TestPlansEqualTheOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_frames_are_byte_identical_and_results_the_same(self, seed):
        for request_id, method, params, outcome, names in cases(seed, 150):
            handler = Scripted(names)
            handler.outcome = outcome
            plans = call_plans(CODEC_BINARY, METHODS, names, "", LIMIT, handler)
            plan = plans[method]
            want_request, want_response = oracle_round_trip(
                handler, request_id, method, params, names
            )
            frame = plan.request(request_id, dict(params))
            if frame is None:           # params no layout carries
                assert "verbose" in params
                frame = encode_request_frame(
                    request_id, method, params, None, CODEC_BINARY
                )
                response = encode_response_frame(
                    oracle.dispatch(handler, decode_message(frame)[0]),
                    method, names, CODEC_BINARY,
                )
            else:
                response = planned_answer(plans, frame)
            assert frame == want_request
            assert response == want_response, (method, outcome)
            got = outcome_of(plan.result, response, request_id)
            want = outcome_of(oracle_result, want_response, request_id, names)
            assert got[0] == want[0]
            assert_same(got[1], want[1])
            # The same frame decoded by the general function, too.
            general = outcome_of(general_result, response, request_id, names)
            assert_same(general[1], want[1])

    @pytest.mark.parametrize("seed", range(3))
    def test_traced_calls_are_the_oracles(self, seed):
        """The general functions keep traced frames: same bytes, same
        payloads, with and without a parent span."""
        rng = random.Random(100 + seed)
        for request_id, method, params, outcome, names in cases(seed, 80):
            root = TraceContext.new_root(origin=rng.choice(["", "central@pid1"]))
            trace = (root.child() if rng.random() < 0.5 else root).to_wire()
            assert encode_request_frame(
                request_id, method, params, trace, CODEC_BINARY
            ) == oracle.encode_request_frame(
                request_id, method, params, trace, CODEC_BINARY
            )
            if isinstance(outcome, Exception):
                payload = {"id": request_id, "error": str(outcome), "trace": trace}
            else:
                payload = {"id": request_id, "result": outcome, "trace": trace}
            frame = encode_response_frame(payload, method, names, CODEC_BINARY)
            assert frame == oracle.encode_response_frame(
                payload, method, names, CODEC_BINARY
            )
            got, _ = decode_message(frame, metric_names=names)
            want, _ = oracle.decode_message(frame, metric_names=names)
            assert_same(got, want, "payload")

    def test_through_the_channel(self):
        """Channel results and byte counts against the oracle's sequence,
        untraced (plans) and traced (the general path) alike."""
        for names, method in ((CATALOGS[64], "sample"), (CATALOGS[8], "collect"),
                              (CATALOGS[3], "poll_many")):
            handler = Scripted(names)
            channel = InprocChannel(handler, "svc@node")
            assert set(channel._plans) == {"sample", "collect", "poll_many"}
            rng = random.Random(len(names))
            for call in range(1, 60):
                handler.outcome = random_result(rng, method, names)
                params = random_params(rng, method)
                trace = TraceContext.new_root() if call % 7 == 0 else None
                before = channel.counter.tx_payload, channel.counter.rx_payload
                got = outcome_of(channel.call, method, trace=trace, **params)
                request, response = oracle_round_trip(
                    handler, call, method, params, names,
                    trace.to_wire() if trace is not None else None,
                )
                want = outcome_of(oracle_result, response, call, names)
                assert got[0] == want[0]
                assert_same(got[1], want[1])
                assert channel.counter.tx_payload - before[0] == len(request)
                assert channel.counter.rx_payload - before[1] == len(response)

    def test_a_class_level_wrapper_sees_every_planned_call(self, monkeypatch):
        """``bench/spans.py`` wraps ``rpc_*`` on the class before a run
        opens its channels: the plan binds the handler's method when the
        channel opens, so the wrapper sees every call."""
        seen = []
        original = Scripted.rpc_collect
        monkeypatch.setattr(
            Scripted, "rpc_collect",
            lambda self, now: seen.append(now) or original(self, now),
        )
        handler = Scripted(CATALOGS[8])
        handler.outcome = {"seconds": [3], "vectors": [[1.0] * 8], "watermark": 2.5}
        channel = InprocChannel(handler, "svc")
        assert channel.call("collect", now=5.0)["seconds"] == [3]
        assert channel.call("collect", now=6.0)["watermark"] == 2.5
        assert seen == [5.0, 6.0]
        assert channel._plans["collect"].target.__self__ is handler


# -- the checks it keeps ---------------------------------------------------------

class TestChecksOnThePlanPath:
    def test_a_response_under_another_id_is_refused(self, monkeypatch):
        answer = codec._SamplePlan.answer

        def answer_late(plan, data):
            frame = bytearray(answer(plan, data))
            frame[6:10] = (int.from_bytes(frame[6:10], "big") + 1).to_bytes(4, "big")
            return bytes(frame)

        monkeypatch.setattr(codec._SamplePlan, "answer", answer_late)
        handler = Scripted(CATALOGS[3])
        handler.outcome = {
            "timestamp": 1.0, "node_name": "n1",
            "node": MetricRow(CATALOGS[3], np.arange(3.0)),
        }
        channel = InprocChannel(handler, "svc")
        with pytest.raises(ProtocolError, match="response id 2 != request id 1"):
            channel.call("sample", now=1.0)
        assert channel.counter.messages_received == 2   # welcome + the answer
        with RpcServer(handler, "svc") as server:
            with RpcClient(*server.address) as client:
                with pytest.raises(
                    ProtocolError, match=r"response id 2 != request id 1 \(peer "
                ):
                    client.call("sample", now=1.0)

    def test_a_response_over_the_limit_is_refused_and_counts_its_request(self):
        handler = Scripted(CATALOGS[3])
        handler.outcome = {
            "timestamp": 1.0, "node_name": "n" * 255,
            "node": MetricRow(CATALOGS[3], np.zeros(3)),
        }
        set_max_frame_bytes(200)
        try:
            channel = InprocChannel(handler, "svc")
            assert "sample" in channel._plans
            sent = channel.counter.messages_sent
            with pytest.raises(ProtocolError, match="frame too large: 305 bytes"):
                channel.call("sample", now=1.0)
        finally:
            set_max_frame_bytes(None)
        assert channel.counter.messages_sent == sent + 1
        assert channel.counter.messages_received == 1   # the welcome only

    def test_the_limit_holds_both_ways_on_a_plan(self):
        handler = Scripted(CATALOGS[3])
        handler.outcome = {"node": MetricRow(CATALOGS[3], np.ones(3))}
        plans = call_plans(CODEC_BINARY, METHODS, CATALOGS[3], "far:1", 8, handler)
        with pytest.raises(ProtocolError, match=r"frame too large: 16 bytes > limit 8 \(peer far:1\)"):
            plans["sample"].request(1, {"now": 1.0})
        roomy = call_plans(CODEC_BINARY, METHODS, CATALOGS[3], "far:1", LIMIT, handler)
        response = planned_answer(roomy, roomy["sample"].request(1, {"now": 1.0}))
        with pytest.raises(ProtocolError, match=r"exceeds maximum 8 \(peer far:1\)"):
            plans["sample"].result(response, 1)

    def test_a_remote_error_on_a_planned_method(self):
        handler = Scripted(CATALOGS[8])
        channel = InprocChannel(handler, "svc")
        handler.outcome = TypeError("rpc_collect() missing 1 required argument")
        with pytest.raises(RemoteError, match="^bad parameters for collect: rpc_collect"):
            channel.call("collect", now=1.0)
        handler.outcome = KeyError("slot")
        with pytest.raises(RemoteError, match="^KeyError: 'slot'"):
            channel.call("collect", now=1.0)
        # An unexpected param never reaches a plan; dispatch reports it.
        with pytest.raises(RemoteError, match="^bad parameters for collect"):
            channel.call("collect", now=1.0, verbose=True)

    def test_no_plan_without_a_binary_catalog(self):
        assert call_plans("json", METHODS, CATALOGS[3], "", LIMIT) == {}
        assert call_plans(CODEC_BINARY, METHODS, (), "", LIMIT) == {}
        assert set(call_plans(CODEC_BINARY, ["sample", "inject"], CATALOGS[3],
                              "", LIMIT)) == {"sample"}
