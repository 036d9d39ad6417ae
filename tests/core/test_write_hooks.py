"""``Output.add_write_hook`` and the one flat ``WriteHookChain``.

Every observer of an output (telemetry tap, flight recorder, latency
tracer, a test spy) is one entry of one list, whatever order they
attached in: hooks fire in attachment order and the chain stays
introspectable.  The scheduler is not among them -- it counts writes
from the output's trigger plan -- so every consumer is counted exactly
once per write whatever is on ``on_write``.
"""

import pytest

from repro.core import FptCore, Output, SimClock, WriteHookChain
from repro.flightrec import FlightRecorder
from repro.obsv import Observatory
from repro.telemetry import Telemetry

from .helpers import build_registry

CONFIG = (
    "[source]\nid = s\ninterval = 1.0\n\n"
    "[double]\nid = d\ninput[input] = s.value\n\n"
    "[sink]\nid = k\ninput[a] = d.value\n"
)


def hooks_of(output: Output) -> list:
    hook = output.on_write
    if hook is None:
        return []
    return list(hook.hooks) if isinstance(hook, WriteHookChain) else [hook]


class TestAddWriteHook:
    def test_first_hook_is_installed_bare(self):
        output = Output(owner_id="a", name="b")
        hook = lambda out, sample: None  # noqa: E731
        output.add_write_hook(hook)
        assert output.on_write is hook

    def test_second_hook_makes_a_chain_in_attachment_order(self):
        output = Output(owner_id="a", name="b")
        calls = []
        for tag in "xyz":
            output.add_write_hook(
                lambda out, sample, tag=tag: calls.append((tag, sample.value))
            )
        assert isinstance(output.on_write, WriteHookChain)
        assert len(output.on_write.hooks) == 3
        output.write(7, 0.0)
        assert calls == [("x", 7), ("y", 7), ("z", 7)]

    def test_unobserved_and_scheduler_only_outputs_stay_direct(self):
        assert Output(owner_id="a", name="b").on_write is None
        core = FptCore.from_config(CONFIG, build_registry(), SimClock())
        # Scheduling needs no hook: nothing to call after such a write.
        assert core.instance("s").out.on_write is None
        core.run_until(2.0)
        assert core.scheduler.runs_by_instance == {"s": 3, "d": 3, "k": 3}

    def test_telemetry_is_a_tap_installed_only_when_enabled(self):
        for telemetry, hooks in ((Telemetry(), 1), (Telemetry(enabled=False), 0)):
            core = FptCore.from_config(
                CONFIG, build_registry(), SimClock(), telemetry=telemetry
            )
            out = core.instance("s").out
            core.scheduler.attach_output(out)  # again: no second tap
            assert len(hooks_of(out)) == hooks
            core.run_until(2.0)
            assert telemetry.metrics.value(
                "fpt_output_writes_total", {"output": "s.value"}
            ) == (3 if hooks else 0)

    def test_full_name_is_fixed_at_construction(self):
        output = Output(owner_id="inst", name="port")
        assert output.full_name == "inst.port"
        assert "full_name" in vars(output)  # an attribute, not a property


def attach_observers(core, order):
    recorder = FlightRecorder()
    observatory = Observatory()
    for which in order:
        if which == "recorder":
            core.set_flight_recorder(recorder)
        else:
            observatory.attach(core)
    return recorder, observatory


@pytest.mark.parametrize("order", [
    ("recorder", "observatory"), ("observatory", "recorder"),
], ids=["recorder-first", "observatory-first"])
class TestObserversShareOneChain:
    def test_every_probe_sees_every_write_once(self, order):
        core = FptCore.from_config(
            CONFIG, build_registry(), SimClock(), telemetry=Telemetry()
        )
        spied = []
        out = core.instance("s").out
        # A foreign spy that takes over on_write (dropping the telemetry
        # tap with it) before the observers attach behind it.
        out.on_write = lambda output, sample: spied.append(sample.value)
        recorder, observatory = attach_observers(core, order)
        for ctx in core.dag.contexts.values():
            for output in ctx.outputs.values():
                core.scheduler.attach_output(output)  # again: a no-op
        assert len(hooks_of(out)) == 3  # spy, two observers
        assert len(hooks_of(core.instance("d").out)) == 3  # tap, two observers

        core.run_until(4.0)  # five ticks: t = 0..4
        assert spied == [0, 1, 2, 3, 4]
        # Every consumer ran once per write, neither dropped nor doubled.
        assert core.instance("k").seen == [(float(i), 2 * i) for i in range(5)]
        assert core.scheduler.runs_by_instance == {"s": 5, "d": 5, "k": 5}
        for name in ("s.value", "d.value"):
            assert recorder.rings[name].total_recorded == 5
        assert observatory.tracer.writes_observed == 10
        assert recorder.stats()["recorded"] == 10
        assert core.telemetry.metrics.value(
            "fpt_output_writes_total", {"output": "d.value"}
        ) == 5

    def test_runtime_attached_instance_is_tapped_by_both(self, order):
        core = FptCore.from_config(CONFIG, build_registry(), SimClock())
        recorder, observatory = attach_observers(core, order)
        core.run_until(1.0)
        core.attach("[double]\nid = late\ninput[input] = s.value\n")
        late = core.instance("late").out
        assert len(hooks_of(late)) == 2
        core.run_until(3.0)  # two more ticks reach the late instance
        assert core.scheduler.runs_by_instance["late"] == 2
        assert recorder.rings["late.value"].total_recorded == 2
        assert observatory.tracer.last_write("late.value")[0] == 3.0
        assert observatory.tracer.ingest_watermark("late.value")[0] == 3.0
        services = core.dag.contexts["late"].services
        assert services["flight_recorder"] is recorder
        assert services["observatory"] is observatory
