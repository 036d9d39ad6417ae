"""End-to-end: a telemetry-enabled core instruments itself while running."""

import json

from repro.analysis.metrics import Alarm
from repro.core import FptCore, Module, ModuleRegistry, RunReason, SimClock
from repro.modules.alarms import PrintModule
from repro.obsv import Observatory
from repro.telemetry import NULL_TELEMETRY, Telemetry

CONFIG = "[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n"


class SourceModule(Module):
    """Emits an incrementing counter once per second."""

    type_name = "source"

    def init(self) -> None:
        self.out = self.ctx.create_output("value")
        self.counter = 0
        self.ctx.schedule_every(1.0)

    def run(self, reason: RunReason) -> None:
        self.out.write(self.counter, self.ctx.clock.now())
        self.counter += 1


class SinkModule(Module):
    """Records everything arriving on any input."""

    type_name = "sink"

    def init(self) -> None:
        self.seen = []
        self.ctx.trigger_after_updates(1)

    def run(self, reason: RunReason) -> None:
        for group in self.ctx.inputs.values():
            for connection in group:
                self.seen.extend(connection.pop_all())


def build_registry() -> ModuleRegistry:
    registry = ModuleRegistry()
    registry.register(SourceModule)
    registry.register(SinkModule)
    return registry


class AlarmSourceModule(Module):
    """Emits one Alarm per tick, for alarm-record tests."""

    type_name = "alarm_source"

    def init(self) -> None:
        self.out = self.ctx.create_output("alarms")
        self.ctx.schedule_every(1.0)

    def run(self, reason: RunReason) -> None:
        now = self.ctx.clock.now()
        self.out.write(
            Alarm(time=now, node="slave05", source="blackbox",
                  detail="L1 deviation 66.2 > 65.0"),
            now,
        )


def alarm_registry() -> ModuleRegistry:
    registry = ModuleRegistry()
    registry.register(AlarmSourceModule)
    registry.register(PrintModule)
    return registry


class TestCoreInstrumentation:
    def test_default_core_has_null_telemetry(self):
        core = FptCore.from_config(CONFIG, build_registry(), SimClock())
        assert core.telemetry is NULL_TELEMETRY
        assert not core.telemetry.enabled
        core.run_until(3.0)
        assert core.telemetry.metrics.families() == []
        assert core.telemetry.tracer.events == []

    def test_run_counters_and_latency_histograms(self):
        telemetry = Telemetry()
        core = FptCore.from_config(
            CONFIG, build_registry(), SimClock(), telemetry=telemetry
        )
        core.run_until(4.0)
        assert telemetry.metrics.value(
            "fpt_instance_runs_total", {"instance": "s", "reason": "periodic"}
        ) == 5
        assert telemetry.metrics.value(
            "fpt_instance_runs_total", {"instance": "k", "reason": "inputs"}
        ) == 5
        stats = telemetry.run_stats()
        assert stats["s"].runs == 5
        assert stats["k"].mean_latency_s >= 0.0
        assert telemetry.total_run_seconds() > 0.0

    def test_output_write_metrics(self):
        telemetry = Telemetry()
        core = FptCore.from_config(
            CONFIG, build_registry(), SimClock(), telemetry=telemetry
        )
        core.run_until(4.0)
        assert telemetry.metrics.value(
            "fpt_output_writes_total", {"output": "s.value"}
        ) == 5

    def test_trace_events_one_per_run(self):
        telemetry = Telemetry()
        core = FptCore.from_config(
            CONFIG, build_registry(), SimClock(), telemetry=telemetry
        )
        core.run_until(2.0)
        # 3 source runs + 3 sink runs.
        assert len(telemetry.tracer.events) == 6
        tracks = {event.track for event in telemetry.tracer.events}
        assert tracks == {"s", "k"}
        document = json.loads(telemetry.tracer.render_chrome_trace())
        assert len(document["traceEvents"]) == 6
        assert all("sim_time_s" in e["args"] for e in document["traceEvents"])

    def test_modules_see_the_core_telemetry(self):
        telemetry = Telemetry()
        core = FptCore.from_config(
            CONFIG, build_registry(), SimClock(), telemetry=telemetry
        )
        assert core.instance("s").ctx.telemetry is telemetry
        assert core.instance("k").ctx.telemetry is telemetry

    def test_run_errors_counted_when_suppressed(self):
        telemetry = Telemetry()
        core = FptCore.from_config(
            "[source]\nid = s\n", build_registry(), SimClock(),
            telemetry=telemetry,
        )

        def broken_run(reason):
            raise ValueError("boom")

        core.instance("s").run = broken_run
        core.scheduler.on_error = lambda inst, exc: True
        core.run_until(2.0)
        assert telemetry.metrics.value(
            "fpt_instance_run_errors_total", {"instance": "s"}
        ) == 3

    def test_annotated_dot_with_telemetry(self):
        telemetry = Telemetry()
        core = FptCore.from_config(
            CONFIG, build_registry(), SimClock(), telemetry=telemetry
        )
        core.run_until(3.0)
        dot = core.to_dot(annotate=True)
        assert "4 runs" in dot
        assert "ms mean" in dot

    def test_annotated_dot_without_telemetry_uses_scheduler_counts(self):
        core = FptCore.from_config(CONFIG, build_registry(), SimClock())
        core.run_until(3.0)
        dot = core.to_dot(annotate=True)
        assert "4 runs" in dot


ALARM_CONFIG = (
    "[alarm_source]\nid = bb\n\n"
    "[print]\nid = BlackBoxAlarm\ninput[a] = bb.alarms\n"
)


def observed_alarm_core(observatory):
    core = FptCore.from_config(
        ALARM_CONFIG, alarm_registry(), SimClock(),
        telemetry=observatory.telemetry,
    )
    observatory.attach(core)
    return core


class TestAlarmAuditTrail:
    def test_print_sink_records_audit_trail(self):
        observatory = Observatory()
        core = observed_alarm_core(observatory)
        core.run_until(2.0)
        assert len(observatory.records) == 3
        record = observatory.records[0]
        assert record.node == "slave05"
        assert record.source == "blackbox"
        assert record.detail == "L1 deviation 66.2 > 65.0"
        assert record.sink == "BlackBoxAlarm"
        assert record.delivered == ("bb.alarms",)
        assert record.measured  # the source's write is the ingest
        assert "culprits: slave05" in observatory.summary_text()

    def test_no_audit_records_without_an_observatory(self):
        observatory = Observatory()
        core = FptCore.from_config(
            ALARM_CONFIG, alarm_registry(), SimClock(),
            telemetry=observatory.telemetry,
        )
        core.run_until(2.0)
        # Telemetry alone records no alarm: only an attached observatory.
        assert observatory.records == ()
        assert "observatory" not in core.instance("BlackBoxAlarm").ctx.services
        # The sink itself still received everything.
        assert len(core.instance("BlackBoxAlarm").alarms) == 3


class TestSummary:
    def test_summary_text_mentions_instances_and_culprits(self):
        observatory = Observatory(Telemetry())
        core = observed_alarm_core(observatory)
        core.run_until(5.0)
        text = observatory.summary_text()
        assert "bb" in text
        assert "slave05" in text
        assert "total run() time" in text
