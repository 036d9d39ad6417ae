"""The :class:`Observatory` facade: tracer + scoreboard + telemetry.

One object bundles the diagnosis-observatory surfaces a run exposes:

* a :class:`~repro.obsv.latency.LatencyTracer` tapping every channel
  write of the attached core,
* a :class:`~repro.obsv.scoreboard.Scoreboard` consuming the alarm and
  decision streams against registered ground-truth windows, and
* the core's :class:`~repro.telemetry.Telemetry` (created here when the
  embedding run did not bring its own), into which alarm latencies are
  recorded as per-fault histograms.

The observatory is registered as the ``"observatory"`` service of the
core, so the ``scoreboard`` DAG module (an ordinary sink wired into the
generated configuration) can route alarms and decisions into it without
any special-case plumbing in the scheduler.  Everything here is opt-in:
a run without an observatory pays nothing.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..analysis.metrics import Alarm, GroundTruth, WindowDecision
from ..telemetry import Telemetry
from .latency import AlarmLatencyRecord, LatencyTracer
from .scoreboard import Scoreboard, write_scoreboard_json

__all__ = ["Observatory", "OBSERVATORY_SERVICE"]

#: Service name under which the observatory registers with the core.
OBSERVATORY_SERVICE = "observatory"

#: Recent latency records kept for the ops surface and ``repro top``.
RECENT_RECORDS = 256


class Observatory:
    """Everything one run exposes about its own diagnosis pipeline."""

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        scoreboard: Optional[Scoreboard] = None,
        tracer: Optional[LatencyTracer] = None,
    ) -> None:
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(trace=False)
        )
        self.scoreboard = scoreboard if scoreboard is not None else Scoreboard()
        self.tracer = tracer if tracer is not None else LatencyTracer()
        self.recent: Deque[AlarmLatencyRecord] = deque(maxlen=RECENT_RECORDS)
        self._core = None
        self._started_monotonic = time.monotonic()

    # -- attachment ----------------------------------------------------------

    def attach(self, core) -> None:
        """Tap every output of ``core`` and register as its observatory.

        Call after construction, like the flight recorder.  Instances
        attached later (``core.attach``) are tapped through
        ``core.context_observers``.
        """
        self._core = core  # fpt: noqa[FPT401] -- attach() runs before the ops server thread starts
        core.context_observers.append(self.attach_context)
        for ctx in core.dag.contexts.values():
            self.attach_context(ctx)

    def attach_context(self, ctx) -> None:
        """Tap one module context: its outputs plus the sink service."""
        self.tracer.attach_context(ctx)
        ctx.services.setdefault(OBSERVATORY_SERVICE, self)

    @property
    def core(self):
        return self._core

    # -- ground truth --------------------------------------------------------

    def register_ground_truth(
        self, fault: Optional[str], truth: GroundTruth
    ) -> None:
        self.scoreboard.register_truth(fault, truth)

    # -- stream consumption (called by the scoreboard DAG module) ------------

    def observe_alarm(
        self, alarm: Alarm, delivered: Tuple[str, ...], sim_now: float
    ) -> AlarmLatencyRecord:
        """Account one delivered alarm: latency walk + online scoring."""
        record = self.tracer.record_alarm(alarm, delivered, sim_now)
        self.recent.append(record)
        fault = self.scoreboard.observe_alarm(alarm, record)
        if self.telemetry.enabled and record.measured:
            self._record_histograms(fault, record)
        return record

    def observe_decisions(
        self, detector: str, decisions: List[WindowDecision]
    ) -> None:
        self.scoreboard.observe_decisions(detector, decisions)

    def _record_histograms(
        self, fault: str, record: AlarmLatencyRecord
    ) -> None:
        self.telemetry.record_alarm_latency(
            fault, "total", record.total_sim_s, record.total_wall_s
        )
        for stage in record.stages:
            if stage.sim_s is not None:
                self.telemetry.record_alarm_latency(
                    fault, stage.output, stage.sim_s, stage.wall_s
                )

    # -- views (consumed by the ops surface and repro top) -------------------

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def sim_time(self) -> Optional[float]:
        if self._core is None:
            return None
        return self._core.clock.now()

    def health_obj(self) -> dict:
        """Liveness summary: attached, advancing, counting."""
        return {
            "status": "ok" if self._core is not None else "detached",
            "uptime_s": round(self.uptime_s(), 3),
            "sim_time_s": self.sim_time(),
            "alarms_seen": self.scoreboard.alarms_seen,
            "decisions_seen": self.scoreboard.decisions_seen,
            "writes_observed": self.tracer.writes_observed,
            "audit_records": len(self.telemetry.audit),
        }

    def status_obj(self) -> dict:
        """DAG topology plus per-module run stats."""
        status: dict = self.health_obj()
        if self._core is None:
            return status
        core = self._core
        status["instances"] = sorted(core.dag.instances)
        status["edges"] = [
            {"output": f"{edge.src_instance}.{edge.output_name}",
             "to": edge.dst_instance, "input": edge.input_name}
            for edge in core.dag.edges
        ]
        if self.telemetry.enabled:
            status["run_stats"] = {
                instance: {
                    "runs": stats.runs,
                    "mean_latency_ms": round(stats.mean_latency_s * 1e3, 4),
                    "errors": stats.errors,
                }
                for instance, stats in sorted(
                    self.telemetry.run_stats().items()
                )
            }
        return status

    def alarms_obj(
        self, tail: Optional[int] = None, since: Optional[float] = None
    ) -> dict:
        records = self.telemetry.audit.filtered(tail=tail, since=since)
        return {
            "total": len(self.telemetry.audit),
            "returned": len(records),
            "alarms": [record.to_json_obj() for record in records],
        }

    def write_scoreboard(
        self, directory: Optional[str] = None, name: str = "scoreboard"
    ) -> str:
        return write_scoreboard_json(
            self.scoreboard, directory=directory, name=name
        )
