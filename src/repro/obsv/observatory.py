"""The :class:`Observatory` facade: tracer + alarm records + one scorer.

One object bundles the diagnosis-observatory surfaces a run exposes:

* a :class:`~repro.obsv.latency.LatencyTracer` tapping every channel
  write of the attached core,
* one :class:`~repro.obsv.latency.AlarmLatencyRecord` per alarm a
  ``print`` sink delivered -- why it fired, which sink took it, and its
  sample->alarm latency -- served as ``/alarms`` and ``demo --audit``,
* the run's one ground truth plus the alarms and decisions the sinks
  handed over, keyed by delivering output, scored on read with the same
  :func:`~repro.analysis.metrics.score_decisions` /
  :func:`~repro.analysis.metrics.fingerpointing_latency` calls
  :func:`~repro.experiments.run_scenario` makes (``/scoreboard``), and
* the core's :class:`~repro.telemetry.Telemetry` (created here when the
  embedding run did not bring its own), into which alarm latencies are
  recorded as per-fault histograms.

The observatory is registered as the ``"observatory"`` service of the
core, which the ``print`` sink resolves on every run, as it resolves the
flight recorder.  Everything here is opt-in: a run without an
observatory pays one dict lookup per sink run.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from ..analysis.metrics import (
    Alarm,
    GroundTruth,
    WindowDecision,
    fingerpointing_latency,
    score_decisions,
)
from ..telemetry import Telemetry
from .latency import AlarmLatencyRecord, LatencyTracer, percentile

__all__ = ["Observatory", "OBSERVATORY_SERVICE", "SCOREBOARD_FORMAT"]

#: Service name under which the observatory registers with the core.
OBSERVATORY_SERVICE = "observatory"

#: Format tag of ``/scoreboard`` and ``BENCH_scoreboard.json``.
SCOREBOARD_FORMAT = "asdf-scoreboard/2"

#: Fault label of a run with no faulted ground truth, and of an alarm
#: that does not name the culprit at or after injection.
FAULT_FREE = "fault-free"


def _latency_summary(values: List[float]) -> dict:
    return {
        "count": len(values),
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "max": max(values) if values else None,
    }


class Observatory:
    """Everything one run exposes about its own diagnosis pipeline."""

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(trace=False)
        )
        self.tracer = LatencyTracer()
        self.fault = FAULT_FREE
        self.truth = GroundTruth(faulty_node=None)
        # Single writer (the scheduler thread, through the print sinks);
        # ops threads read copies.
        self._records: List[AlarmLatencyRecord] = []
        self._alarms: Dict[str, List[Alarm]] = {}
        self._decisions: Dict[str, List[WindowDecision]] = {}
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
        """Set the run's one ground truth; ``faulty_node=None`` (or no
        ``fault`` name) is the fault-free context."""
        label = fault if fault and truth.faulty_node is not None else FAULT_FREE
        # Both are set before the run starts; ops threads only read them.
        self.fault = label  # fpt: noqa[FPT401] -- set before the run
        self.truth = truth  # fpt: noqa[FPT401] -- set before the run

    # -- stream consumption (called by the print sink) -----------------------

    def observe_alarm(
        self,
        alarm: Alarm,
        delivered: Tuple[str, ...],
        sim_now: float,
        sink: str,
    ) -> AlarmLatencyRecord:
        """Account one delivered alarm: its record and latency walk."""
        record = self.tracer.record_alarm(alarm, delivered, sim_now, sink=sink)
        self._records.append(record)
        self._alarms.setdefault(delivered[-1], []).append(alarm)
        if self.telemetry.enabled and record.measured:
            fault = (
                self.fault
                if fingerpointing_latency((alarm,), self.truth) is not None
                else FAULT_FREE
            )
            self._record_histograms(fault, record)
        return record

    def observe_decisions(
        self, upstream: str, decisions: List[WindowDecision]
    ) -> None:
        self._decisions.setdefault(upstream, []).extend(decisions)

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

    # -- alarm records -------------------------------------------------------

    @property
    def records(self) -> Tuple[AlarmLatencyRecord, ...]:
        """Every delivered alarm, in delivery order (an immutable view)."""
        return tuple(self._records)

    def filtered(
        self, tail: Optional[int] = None, since: Optional[float] = None
    ) -> List[AlarmLatencyRecord]:
        """Records with ``alarm_time >= since``, then only the last ``tail``."""
        records = list(self._records)
        if since is not None:
            records = [r for r in records if r.alarm_time >= since]
        if tail is not None and tail >= 0:
            records = records[-tail:] if tail else []
        return records

    def write_alarms_jsonl(
        self,
        path: str,
        tail: Optional[int] = None,
        since: Optional[float] = None,
    ) -> int:
        """Write the (filtered) records as JSONL; returns how many."""
        records = self.filtered(tail=tail, since=since)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record.to_json_obj()) + "\n")
        return len(records)

    def summary_text(self, limit: int = 20) -> str:
        """The telemetry summary, then the culprits and the first
        ``limit`` records (why each verdict fired)."""
        lines = [self.telemetry.summary_text()]
        records = self.records
        if records:
            culprits = list(dict.fromkeys(r.node for r in records))
            lines.append(
                f"\nalarm records: {len(records)}, "
                f"culprits: {', '.join(culprits)}"
            )
            lines += [record.describe() for record in records[:limit]]
            if len(records) > limit:
                lines.append(f"... and {len(records) - limit} more")
        return "\n".join(lines)

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
            "alarms_seen": len(self._records),
            "decisions_seen": sum(
                len(batch) for batch in dict(self._decisions).values()
            ),
            "writes_observed": self.tracer.writes_observed,
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
        records = self.filtered(tail=tail, since=since)
        return {
            "total": len(self._records),
            "returned": len(records),
            "alarms": [record.to_json_obj() for record in records],
        }

    def scoreboard_obj(self) -> dict:
        """The run scored against its ground truth, as of this read.

        One row per decision output (confusion counts, as
        ``score_decisions`` gives them) and one per alarm output (true
        and false alarms, ``fingerpointing_latency``, and the
        sample->alarm latencies of its records).
        """
        truth = self.truth
        records = self.records
        decisions = {}
        for output, batch in sorted(dict(self._decisions).items()):
            counts = score_decisions(list(batch), truth)
            decisions[output] = {
                "tp": counts.true_positives,
                "fp": counts.false_positives,
                "fn": counts.false_negatives,
                "tn": counts.true_negatives,
                "balanced_accuracy": round(counts.balanced_accuracy, 4),
                "false_positive_rate": round(counts.false_positive_rate, 4),
            }
        alarms = {}
        for output, delivered in sorted(dict(self._alarms).items()):
            delivered = list(delivered)
            true_alarms = sum(
                fingerpointing_latency((alarm,), truth) is not None
                for alarm in delivered
            )
            measured = [
                r for r in records if r.delivered[-1] == output and r.measured
            ]
            alarms[output] = {
                "alarms": len(delivered),
                "true_alarms": true_alarms,
                "false_alarms": len(delivered) - true_alarms,
                "fingerpointing_latency_s": fingerpointing_latency(
                    delivered, truth
                ),
                "unmeasured_alarms": sum(
                    r.delivered[-1] == output and not r.measured
                    for r in records
                ),
                "sample_to_alarm_sim_s": _latency_summary(
                    [r.total_sim_s for r in measured]
                ),
                "sample_to_alarm_wall_s": _latency_summary(
                    [r.total_wall_s for r in measured
                     if r.total_wall_s is not None]
                ),
            }
        return {
            "format": SCOREBOARD_FORMAT,
            "fault": self.fault,
            "truth": {
                "node": truth.faulty_node,
                "inject_time": truth.inject_time,
                "clear_time": truth.clear_time,
            },
            "decisions": decisions,
            "alarms": alarms,
        }

    def write_scoreboard(
        self, directory: Optional[str] = None, name: str = "scoreboard"
    ) -> str:
        """Write ``BENCH_<name>.json`` into ``directory`` (default: the
        working directory)."""
        target_dir = str(directory) if directory else "."
        os.makedirs(target_dir, exist_ok=True)
        payload = self.scoreboard_obj()
        payload["created_unix"] = int(time.time())
        path = os.path.join(target_dir, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        return path
