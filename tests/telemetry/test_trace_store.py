"""The tracer keeps columns; what it exports and shows does not change.

PR 23 replaced the list of ``TraceEvent`` tuples (each with its own args
dict) by packed columns plus a sparse map of the rare extra args, and
made ``tracer.events`` a read-only view that builds a ``TraceEvent``
when asked.  The exports must stay byte-identical to the parent's
(``golden/observed10_400s.trace.json`` for the seeded observed run,
``golden/mixed_events.*`` for one event of every kind), and a retained
run event must cost tens of bytes, not hundreds.
"""

import json
import os
import tracemalloc

import pytest

from repro.telemetry import Telemetry, TraceEvent, Tracer, stitch_chrome_traces

from .observed_run import HEAD_LINES, fixed_perf_counter, observed_run, trace_golden

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden_text(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def mixed_tracer() -> Tracer:
    """One event of every kind: span / complete / instant, with and
    without extra args, and a probe's run with and without an error."""
    with fixed_perf_counter(step_s=0.25):
        tracer = Tracer()
        tracer.pid, tracer.process_name, tracer.wall_epoch = 1, "mixed", 0.0
        with tracer.span("plain"):
            pass
        with tracer.span("poll", category="rpc", track="rpc:sadc",
                         trace_id="t1", n=2):
            pass
        tracer.complete("run", "periodic", 1001.5, 0.125, track="sadc01",
                        sim_time_s=3.0)
        tracer.complete("bare", "", 1002.0, 0.0)
        tracer.instant("alarm", track="sink", node="slave03")
        tracer.instant("mark")
        telemetry = Telemetry(trace=True)
        telemetry.tracer = tracer
        probe = telemetry.run_probe("knn")
        probe("inputs", 1003.0, 0.5, 7.0, None)
        probe("inputs", 1004.0, 0.5, 8.0, "ValueError: boom")
    return tracer


class TestExportsEqualTheParents:
    def test_the_observed_run(self):
        with fixed_perf_counter():
            result, observatory, _ = observed_run()
        try:
            digests, head = trace_golden(observatory.telemetry.tracer)
        finally:
            result.handles.core.close()
        assert len(head.splitlines()) == HEAD_LINES
        assert head == golden_text("observed10_400s.head.jsonl")
        assert digests == json.loads(golden_text("observed10_400s.trace.json"))

    def test_one_event_of_every_kind(self):
        tracer = mixed_tracer()
        assert tracer.render_jsonl() == golden_text("mixed_events.jsonl")
        assert tracer.render_chrome_trace() + "\n" == golden_text(
            "mixed_events.chrome.json"
        )


class TestEventsView:
    def test_len_index_iteration(self):
        events = mixed_tracer().events
        assert len(events) == 8
        assert [event.name for event in events] == [
            "plain", "poll", "run", "bare", "alarm", "mark", "run", "run",
        ]
        assert events[0] == TraceEvent("plain", "", "X", 0.25, 0.25, "core", {})
        assert events[-1] == events[7] == TraceEvent(
            "run", "inputs", "X", 4.0, 0.5, "knn",
            {"sim_time_s": 8.0, "error": "ValueError: boom"},
        )
        assert [event.track for event in events[4:6]] == ["sink", "core"]
        assert events[-8] == events[0]
        for index in (8, -9):
            with pytest.raises(IndexError):
                events[index]

    def test_phases_and_args(self):
        events = mixed_tracer().events
        assert events[1].args == {"trace_id": "t1", "n": 2}
        assert events[2].args == {"sim_time_s": 3.0}
        assert events[3].phase == "X" and events[3].duration_s == 0.0
        assert events[4] == TraceEvent(
            "alarm", "", "i", 1.25, 0.0, "sink", {"node": "slave03"}
        )
        assert events[5].phase == "i" and events[5].args == {}
        assert events[6].args == {"sim_time_s": 7.0}

    def test_equality_and_truth(self):
        tracer = Tracer()
        assert tracer.events == [] and not tracer.events
        tracer.instant("x")
        assert tracer.events != [] and tracer.events
        assert tracer.events == [tracer.events[0]]
        assert tracer.events[0] in tracer.events

    def test_it_is_a_view_not_a_snapshot_and_not_a_list(self):
        tracer = Tracer()
        events = tracer.events
        tracer.instant("later")
        assert len(events) == 1 and events[0].name == "later"
        assert not hasattr(events, "append")
        with pytest.raises(TypeError):
            events[0] = None

    def test_a_materialised_event_is_the_callers(self):
        tracer = Tracer()
        tracer.complete("run", "periodic", 0.0, 1.0, sim_time_s=1.0, note="a")
        tracer.events[0].args["note"] = "scribbled"
        assert tracer.events[0].args == {"sim_time_s": 1.0, "note": "a"}


class TestCap:
    def test_dropped_counts_every_kind_beyond_the_cap(self):
        tracer = Tracer(max_events=3)
        telemetry = Telemetry(trace=True)
        telemetry.tracer = tracer
        probe = telemetry.run_probe("knn")
        for step in range(4):
            tracer.instant("i", n=step)
            probe("inputs", float(step), 0.1, float(step), None)
        assert len(tracer.events) == 3 and tracer.dropped == 5
        assert [event.phase for event in tracer.events] == ["i", "X", "i"]
        assert tracer.events[2].args == {"n": 1}
        assert len(tracer.events.extra) == 2  # a dropped event keeps nothing
        document = tracer.to_chrome_trace()
        assert document["otherData"]["droppedEvents"] == 5
        assert len(document["traceEvents"]) == 3

    def test_the_null_tracer_keeps_nothing(self):
        tracer = Tracer(enabled=False, max_events=0)
        tracer.instant("x")
        tracer.complete("y", "", 0.0, 1.0)
        assert tracer.events == [] and tracer.dropped == 0


class TestStitchOverTwoColumnStores:
    def test_rows_keep_their_process_and_args(self):
        tracers = []
        for pid, name, epoch in ((11, "central", 100.0), (22, "node-01", 100.5)):
            tracer = Tracer()
            tracer.pid, tracer.process_name, tracer.wall_epoch = pid, name, epoch
            tracer.complete("round", "cluster", tracer._epoch + 1.0, 0.5,
                            track=name, trace_id="abc")
            tracer.record("run", "periodic", tracer._epoch + 2.0, 0.25, name, 9.0)
            tracers.append(tracer)
        merged = stitch_chrome_traces(
            [tracer.to_chrome_trace() for tracer in tracers]
        )
        rows = [e for e in merged["traceEvents"] if e["ph"] != "M"]
        assert [(e["pid"], e["name"], e["ts"]) for e in rows] == [
            (11, "round", 1e6), (22, "round", 1.5e6),
            (11, "run", 2e6), (22, "run", 2.5e6),
        ]
        assert rows[0]["args"] == {"trace_id": "abc"}
        assert rows[3]["args"] == {"sim_time_s": 9.0}


class TestRetainedBytes:
    def test_a_plain_run_event_retains_under_64_bytes(self):
        telemetry = Telemetry(trace=True)
        probe = telemetry.run_probe("sadc_slave01")
        probe("periodic", 0.0, 0.1, 0.0, None)  # binds the series first
        events = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for step in range(events):
                # Floats no other object holds, as a live run's are.
                probe("periodic", step + 0.5, 0.001 * step, step * 1.0, None)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(telemetry.tracer.events) == events + 1
        assert retained / events < 64  # 360 at the parent

