"""Call plans against the codec's general path as it was (``codec_oracle``).

A plan packs, unpacks and answers the ``sample`` / ``collect`` /
``poll_many`` calls.  Held here: on seeded random results -- rows with
NaN, -0.0, float32 or strided values, series of 0, 1 and 240 rows, node
names that change from call to call on one connection, ``now`` as float,
int and ``numpy.float64``, the priming ``None``, handlers raising
``TypeError`` or anything else -- every frame a plan builds, traced or
not, is byte-identical to the oracle's, and every result it reads
``==`` the oracle's and of the same types.  What the oracle sent as JSON
or read name by name -- extra keys and params, rows in another catalog
order or as dicts, node names over 255 bytes or unlike their batch's,
series seconds past an i64 -- is refused at the sender instead, and so
is a series that is not a ``SeriesRows``, which the oracle packed.  The id-mismatch and
frame-limit checks still fire on the plan path, also at limits around
the size of the steady frames; a steady call never reaches the general
functions; request ids stay u32 past ``2**32 - 1`` calls.
"""

import math
import random
import struct
from itertools import islice

import numpy as np
import pytest

from repro.rpc import (
    InprocChannel,
    MetricRow,
    ProtocolError,
    RemoteError,
    RpcClient,
    RpcServer,
    SeriesRows,
    TraceContext,
    set_max_frame_bytes,
)
from repro.rpc import codec, inproc, server
from repro.rpc.codec import (
    MAGIC,
    Wire,
    decode_message,
    encode_request_frame,
    encode_response_frame,
)
from repro.rpc.protocol import (
    WIRE_HEADER_BYTES,
    intern_catalog,
    request_ids,
    response_result,
)
from repro.sysstat import NODE_METRICS

from . import codec_oracle as oracle
from .codec_oracle import CODEC_BINARY
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
        ["", "slave07", "slave08", "n" * rng.randint(1, 255), "été", "n" * 256]
    )
    window["node"] = random_row(rng, names)
    if rng.random() < 0.5:
        window["emit_wall"] = rng.uniform(1e9, 2e9)
    if rng.random() < 0.05:
        window["nics"] = {"eth0": {}}   # a key no layout carries
    return window


def random_series(rng, width):
    rows = rng.choice([0, 1, 1, 2, 5, 240])
    first = rng.randint(-3, 10**6)
    if rng.random() < 0.1:              # past an i64
        first = rng.choice([2**63 - 1, 2**63, -2**63 - 1, 2**64])
    series = SeriesRows(first, [
        [rng.choice([0.0, 1.0, 2.0, 0.5, -0.0]) for _ in range(width)]
        for _ in range(rows)
    ], rng.choice([-1.0, rng.uniform(0, 1e6)]))
    if rng.random() < 0.15:
        return dict(series)             # the dict it reads as
    return series


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
    name = rng.choice(["node-01", ""])
    windows = [
        dict(random_window(rng, names), node_name=name)
        for _ in range(rng.randint(0, 4))
    ]
    if windows and rng.random() < 0.1:
        windows[-1]["node_name"] = "slave07"    # unlike the batch's
    return {"node_name": name, "windows": windows}


def random_params(rng, method):
    params = {"now": rng.choice([
        rng.uniform(0, 1e6), 7, 1.5, 10**6, np.float64(rng.uniform(0, 1e6)),
    ])}
    if method == "poll_many" and rng.random() < 0.7:
        params["max_windows"] = rng.choice([1, 32, 70000, -4])
    if rng.random() < 0.05:
        params["verbose"] = True        # a param no layout carries
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


def oracle_result(response, request_id, names, peer="", limit=None):
    payload, _ = oracle.decode_message(response, peer, names, limit)
    return response_result(payload, request_id, peer)


def general_result(response, request_id, names):
    return response_result(
        decode_message(response, metric_names=names)[0], request_id
    )


def outcome_of(call, *args, **kwargs):
    try:
        return "ok", call(*args, **kwargs)
    except RemoteError as exc:
        return "remote", str(exc)
    except ProtocolError as exc:
        return "protocol", str(exc)


def refused(oracle_frame, result, names):
    """Whether the oracle sent ``result`` as JSON, read a row of it name
    by name or gave a window its batch's name: what the layouts have no
    field for."""
    if oracle_frame[4] != MAGIC:
        return True
    if not isinstance(result, dict):
        return False
    if "vectors" in result:
        return True                     # a series, but no SeriesRows
    name = result.get("node_name", "")
    return any(
        isinstance(window, dict) and "node" in window
        and not (type(window["node"]) is MetricRow and window["node"].names == names)
        or "windows" in result and window.get("node_name", name) != name
        for window in result.get("windows", [result])
    )


def assert_refused(outcome):
    assert outcome[0] == "remote", outcome
    assert " result does not fit its binary frame: " in outcome[1]


# -- the parity ---------------------------------------------------------------

class TestPlansEqualTheOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_frames_are_byte_identical_and_results_the_same(self, seed):
        """One connection per catalog, so what a plan keeps between calls
        (the last node name's layout) meets every name in turn."""
        connections = {}
        for request_id, method, params, outcome, names in cases(seed, 150):
            if names not in connections:
                handler = Scripted(names)
                connections[names] = handler, Wire(names, "", LIMIT, handler)
            handler, wire = connections[names]
            handler.outcome = outcome
            plan = wire.plans[method]
            if "verbose" in params:     # a param no layout carries
                with pytest.raises(ProtocolError, match="'verbose'"):
                    plan.request(request_id, dict(params))
                continue
            want_request, want_response = oracle_round_trip(
                handler, request_id, method, params, names
            )
            frame = plan.request(request_id, dict(params))
            response = wire.answer(frame)
            assert frame == want_request
            got = outcome_of(plan.result, response, request_id)
            # The same frame decoded by the general function, too.
            general = outcome_of(general_result, response, request_id, names)
            assert_same(general, got)
            if refused(want_response, outcome, names):
                assert_refused(got)
                continue
            assert response == want_response, (method, outcome)
            want = outcome_of(oracle_result, want_response, request_id, names)
            assert got[0] == want[0]
            assert_same(got[1], want[1])

    @pytest.mark.parametrize("seed", range(3))
    def test_traced_calls_are_the_oracles(self, seed):
        """Traced frames, with and without a parent span: same bytes,
        same payloads."""
        rng = random.Random(100 + seed)
        for request_id, method, params, outcome, names in cases(seed, 80):
            root = TraceContext.new_root(origin=rng.choice(["", "central@pid1"]))
            trace = (root.child() if rng.random() < 0.5 else root).to_wire()
            if "verbose" in params:
                with pytest.raises(ProtocolError, match="'verbose'"):
                    encode_request_frame(request_id, method, params, trace)
            else:
                assert encode_request_frame(
                    request_id, method, params, trace
                ) == oracle.encode_request_frame(
                    request_id, method, params, trace, CODEC_BINARY
                )
            if isinstance(outcome, Exception):
                payload = {"id": request_id, "error": str(outcome), "trace": trace}
            else:
                payload = {"id": request_id, "result": outcome, "trace": trace}
            frame = encode_response_frame(payload, method, names)
            want_frame = oracle.encode_response_frame(
                payload, method, names, CODEC_BINARY
            )
            got, _ = decode_message(frame, metric_names=names)
            if refused(want_frame, outcome, names):
                assert got["trace"] == trace
                assert_refused(outcome_of(response_result, got, request_id))
                continue
            assert frame == want_frame
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
                if "verbose" in params:
                    assert got[0] == "protocol" and "'verbose'" in got[1]
                    assert channel.counter.tx_payload == before[0]
                    continue
                request, response = oracle_round_trip(
                    handler, call, method, params, names,
                    trace.to_wire() if trace is not None else None,
                )
                assert channel.counter.tx_payload - before[0] == len(request)
                if refused(response, handler.outcome, names):
                    assert_refused(got)
                    continue
                want = outcome_of(oracle_result, response, call, names)
                assert got[0] == want[0]
                assert_same(got[1], want[1])
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
        handler.outcome = SeriesRows(3, [[1.0] * 8], 2.5)
        channel = InprocChannel(handler, "svc")
        assert channel.call("collect", now=5.0)["seconds"] == [3]
        assert channel.call("collect", now=6.0)["watermark"] == 2.5
        assert seen == [5.0, 6.0]
        assert channel._plans["collect"].target.__self__ is handler


    @pytest.mark.parametrize("method", ["sample", "collect"])
    def test_limits_around_the_steady_frames(self, method):
        """At a limit just under, at and just over the size of the steady
        request and of a one-row response, a plan builds the oracle's
        frames or raises the oracle's error, writing and reading."""
        names = CATALOGS[8] if method == "collect" else CATALOGS[64]
        handler = Scripted(names)
        handler.outcome = (
            SeriesRows(41, [[2.0] * 8], 42.5)
            if method == "collect" else
            {"timestamp": 9.0, "node_name": "slave07",
             "node": MetricRow(names, np.arange(64.0))}
        )
        request, response = oracle_round_trip(handler, 5, method, {"now": 3.0}, names)
        reply = oracle.dispatch(handler, oracle.decode_message(request)[0])
        sizes = {len(request) - 4, len(response) - 4}
        for limit in sorted({size + step for size in sizes for step in (-1, 0, 1)}):
            wire = Wire(names, "p:1", limit, handler)
            plans = wire.plans
            got = staged(plans[method].request, 5, {"now": 3.0})
            want = staged(oracle.encode_request_frame, 5, method, {"now": 3.0},
                          None, CODEC_BINARY, "p:1", limit)
            assert got == want, limit
            if got[0] == "ok":
                got = staged(wire.answer, request)
                want = staged(oracle.encode_response_frame, reply, method, names,
                              CODEC_BINARY, "p:1", limit)
                assert got == want, limit
            # The roomy response read under this limit.
            got = staged(plans[method].result, response, 5)
            want = staged(oracle_result, response, 5, names, "p:1", limit)
            if got[0] == want[0] == "ok":
                assert_same(got[1], want[1])
            else:
                assert got == want, limit


def staged(call, *args):
    """``("ok", call(*args))`` or ``("error", type, message)``."""
    try:
        return "ok", call(*args)
    except (ProtocolError, RemoteError) as exc:
        return "error", type(exc).__name__, str(exc)


# -- the steady path ------------------------------------------------------------

def steady_outcomes(names, method, count):
    """Steady results: one window against the catalog under a name that
    changes now and then, or a one-row series; ``now`` of every type."""
    rng = random.Random(count)
    for call in range(count):
        now = rng.choice([float(call), call, np.float64(call + 0.5)])
        if method == "collect":
            yield now, SeriesRows(call, [[rng.random()] * 8], call + 0.25)
        else:
            yield now, {"timestamp": float(call),
                        "node_name": rng.choice(["slave07", "slave08", "n1", "été"]),
                        "node": MetricRow(names, np.full(64, rng.random()))}


class TestTheSteadyPath:
    def test_a_steady_call_never_takes_the_general_path(self, monkeypatch):
        """The general functions -- and the plans' own field-by-field
        fallbacks -- raise; steady untraced calls still return the
        oracle's results and count the oracle's bytes."""
        channels = {
            method: InprocChannel(Scripted(names), "svc@node")
            for method, names in (("sample", CATALOGS[64]), ("collect", CATALOGS[8]))
        }

        def general(*args, **kwargs):
            raise AssertionError("a steady call took the general path")

        for module in (codec, inproc, server):
            for name in ("encode_request_frame", "encode_response_frame",
                         "decode_message", "dispatch", "encode_frame",
                         "decode_frame", "_request_values", "_pack_trace",
                         "_frame", "_walk_windows"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, general)
        monkeypatch.setattr(codec.CallPlan, "_windows", general)
        for method, channel in channels.items():
            handler, names = channel.handler, channel.metric_names
            start = vars(channel.counter).copy()
            tx = rx = 0
            for call, (now, outcome) in enumerate(steady_outcomes(names, method, 40), 1):
                handler.outcome = outcome
                got = channel.call(method, now=now)
                assert handler.seen[-1] == {"now": float(now)}
                request, response = oracle_round_trip(
                    handler, call, method, {"now": now}, names
                )
                assert_same(got, oracle_result(response, call, names))
                tx, rx = tx + len(request), rx + len(response)
            counter = channel.counter
            assert (counter.tx_payload - start["tx_payload"],
                    counter.rx_payload - start["rx_payload"]) == (tx, rx)
            assert counter.messages_sent - start["messages_sent"] == 40
            assert counter.messages_received - start["messages_received"] == 40
            # Every steady frame fits one segment: one header each.
            assert counter.tx_wire - start["tx_wire"] == tx + 40 * WIRE_HEADER_BYTES
            assert counter.rx_wire - start["rx_wire"] == rx + 40 * WIRE_HEADER_BYTES


class TestRequestIds:
    def test_ids_wrap_to_one_after_the_last_u32(self):
        assert list(islice(request_ids(2**32 - 2), 4)) == [2**32 - 2, 2**32 - 1, 1, 2]

    def test_calls_go_on_past_the_last_u32_id(self):
        """Three planned and three traced calls from id ``2**32 - 1`` on,
        in process and over TCP: each answer matches its request."""
        handler = Scripted(CATALOGS[3])
        handler.outcome = {
            "timestamp": 1.0, "node_name": "n1",
            "node": MetricRow(CATALOGS[3], np.arange(3.0)),
        }
        with RpcServer(handler, "svc") as srv, RpcClient(*srv.address) as client:
            for caller in (InprocChannel(handler, "svc"), client):
                caller._ids = request_ids(2**32 - 1)
                for trace in (None, None, None, TraceContext.new_root(),
                              TraceContext.new_root(), TraceContext.new_root()):
                    got = caller.call("sample", trace=trace, now=2.0)
                    assert list(got["node"].values()) == [0.0, 1.0, 2.0]
                assert next(caller._ids) == 6


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
        plans = Wire(CATALOGS[3], "far:1", 8, handler).plans
        with pytest.raises(ProtocolError, match=r"frame too large: 16 bytes > limit 8 \(peer far:1\)"):
            plans["sample"].request(1, {"now": 1.0})
        roomy = Wire(CATALOGS[3], "far:1", LIMIT, handler)
        response = roomy.answer(roomy.plans["sample"].request(1, {"now": 1.0}))
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
        # A param no layout carries never leaves the caller.
        with pytest.raises(ProtocolError, match=r"collect params \['verbose'\]"):
            channel.call("collect", now=1.0, verbose=True)

    def test_every_data_method_has_a_plan(self):
        """With or without a catalog; a window needs one to ride."""
        handler = Scripted(())
        handler.outcome = {"node": MetricRow(CATALOGS[3], np.ones(3))}
        for names in (CATALOGS[3], ()):
            assert set(Wire(names, "", LIMIT).plans) == set(METHODS)
        channel = InprocChannel(handler, "svc")
        with pytest.raises(RemoteError, match="no row on the metric catalog"):
            channel.call("sample", now=1.0)
        handler.outcome = None
        assert channel.call("sample", now=2.0) is None
