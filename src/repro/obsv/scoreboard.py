"""Online ground-truth scoreboard: Table 2 computed while the run runs.

Fault injectors register labeled ground-truth windows (node, fault type,
active interval) the moment they arm; the scoreboard then consumes the
alarm and decision streams *as the run proceeds*, maintaining rolling
TP/FP/FN/TN per (fault, detector), per-fault balanced accuracy, and
detection-latency percentiles.  The offline scorer
(:func:`repro.analysis.metrics.score_decisions`) remains the system of
record at end of run; the scoreboard's value is that the same numbers
exist *during* the run, queryable over the ops surface and emitted as
``BENCH_scoreboard.json`` so CI can track the trajectory.

Attribution rules:

* An **alarm** is attributed to the fault whose truth window covers its
  node at its time (``alarm.time >= start`` and node match; detection
  after ``clear_time`` still counts -- the paper measures latency from
  injection, and detectors legitimately lag the clearing edge).  Alarms
  matching no window are false alarms, charged to the run's primary
  fault context.
* A **decision** (one node-window verdict from a detector) is scored
  against the union of registered windows, exactly like
  ``score_decisions``; the outcome lands on the covering fault's row,
  or on the primary fault context for negatives.
* The **primary fault context** is the single registered fault (the
  normal one-fault evaluation run), else ``"fault-free"``.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.metrics import Alarm, ConfusionCounts, GroundTruth, WindowDecision
from .latency import AlarmLatencyRecord

__all__ = [
    "SCOREBOARD_FORMAT",
    "TruthWindow",
    "FaultScore",
    "Scoreboard",
    "percentile",
    "write_scoreboard_json",
]

#: Format tag of the emitted scoreboard files.
SCOREBOARD_FORMAT = "asdf-scoreboard/1"

#: Fault label used when a run registers no faulted truth window.
FAULT_FREE = "fault-free"


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of ``values`` (q in [0, 100]); None if empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _latency_summary(values: List[float]) -> dict:
    return {
        "count": len(values),
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "max": max(values) if values else None,
    }


@dataclass(frozen=True)
class TruthWindow:
    """One labeled ground-truth interval, as registered by an injector."""

    fault: str
    node: Optional[str]
    inject_time: float
    clear_time: Optional[float]

    @property
    def truth(self) -> GroundTruth:
        return GroundTruth(
            faulty_node=self.node,
            inject_time=self.inject_time,
            clear_time=self.clear_time,
        )

    def covers_alarm(self, alarm: Alarm) -> bool:
        return self.node is not None and alarm.node == self.node and (
            alarm.time >= self.inject_time
        )

    def covers_window(self, node: str, start: float, end: float) -> bool:
        return self.truth.window_is_problematic(node, start, end)

    def to_json_obj(self) -> dict:
        return {
            "fault": self.fault,
            "node": self.node,
            "inject_time": self.inject_time,
            "clear_time": self.clear_time,
        }


@dataclass
class FaultScore:
    """Rolling per-fault tallies: alarms, confusion counts, latencies."""

    fault: str
    alarms: int = 0
    true_alarms: int = 0
    false_alarms: int = 0
    #: Seconds from injection to each culprit-naming alarm (the first
    #: entry is the paper's fingerpointing latency).
    detection_latencies_s: List[float] = field(default_factory=list)
    #: Sample->alarm latency, from the via-chain walk (sim clock).
    sample_to_alarm_sim_s: List[float] = field(default_factory=list)
    #: Same, on the wall clock (real processing time).
    sample_to_alarm_wall_s: List[float] = field(default_factory=list)
    #: Alarms whose provenance yielded no measurable latency.
    unmeasured_alarms: int = 0
    #: Per-detector confusion counts (detector = delivering output).
    detectors: Dict[str, ConfusionCounts] = field(default_factory=dict)

    def detector_counts(self, detector: str) -> ConfusionCounts:
        counts = self.detectors.get(detector)
        if counts is None:
            counts = ConfusionCounts()
            self.detectors[detector] = counts
        return counts

    @property
    def fingerpointing_latency_s(self) -> Optional[float]:
        return (
            min(self.detection_latencies_s)
            if self.detection_latencies_s else None
        )

    def to_json_obj(self) -> dict:
        return {
            "alarms": self.alarms,
            "true_alarms": self.true_alarms,
            "false_alarms": self.false_alarms,
            "unmeasured_alarms": self.unmeasured_alarms,
            "fingerpointing_latency_s": self.fingerpointing_latency_s,
            "detection_latency_s": _latency_summary(self.detection_latencies_s),
            "sample_to_alarm_sim_s": _latency_summary(self.sample_to_alarm_sim_s),
            "sample_to_alarm_wall_s": _latency_summary(
                self.sample_to_alarm_wall_s
            ),
            "detectors": {
                detector: {
                    "tp": counts.true_positives,
                    "fp": counts.false_positives,
                    "fn": counts.false_negatives,
                    "tn": counts.true_negatives,
                    "balanced_accuracy": round(counts.balanced_accuracy, 4),
                    "false_positive_rate": round(
                        counts.false_positive_rate, 4
                    ),
                }
                for detector, counts in sorted(self.detectors.items())
            },
        }


class Scoreboard:
    """Consumes alarm/decision streams online against registered truths."""

    def __init__(self) -> None:
        self._truths: List[TruthWindow] = []
        self._scores: Dict[str, FaultScore] = {}
        self.alarms_seen = 0
        self.decisions_seen = 0

    # -- registration --------------------------------------------------------

    def register_truth(
        self, fault: Optional[str], truth: GroundTruth
    ) -> TruthWindow:
        """Register one labeled ground-truth window.

        A ``truth`` with ``faulty_node=None`` registers the fault-free
        context: every decision scores as a negative, every alarm as a
        false alarm.
        """
        label = fault if fault and truth.faulty_node is not None else FAULT_FREE
        window = TruthWindow(
            fault=label,
            node=truth.faulty_node,
            inject_time=truth.inject_time,
            clear_time=truth.clear_time,
        )
        self._truths.append(window)
        self._score(label)
        return window

    @property
    def truths(self) -> Tuple[TruthWindow, ...]:
        return tuple(self._truths)

    def _score(self, fault: str) -> FaultScore:
        score = self._scores.get(fault)
        if score is None:
            score = FaultScore(fault=fault)
            self._scores[fault] = score
        return score

    def _primary_fault(self) -> str:
        faulted = [w.fault for w in self._truths if w.node is not None]
        if len(faulted) == 1:
            return faulted[0]
        return FAULT_FREE

    # -- stream consumption --------------------------------------------------

    def attribute_alarm(self, alarm: Alarm) -> Optional[TruthWindow]:
        """The covering truth window, newest-starting first; else None."""
        covering = [w for w in self._truths if w.covers_alarm(alarm)]
        if not covering:
            return None
        return max(covering, key=lambda w: w.inject_time)

    def observe_alarm(
        self, alarm: Alarm, latency: Optional[AlarmLatencyRecord] = None
    ) -> str:
        """Account one alarm; returns the fault label it was charged to."""
        self.alarms_seen += 1  # fpt: noqa[FPT401] -- single writer: only the scheduler thread observes; ops threads read
        window = self.attribute_alarm(alarm)
        if window is not None:
            score = self._score(window.fault)
            score.true_alarms += 1
            score.detection_latencies_s.append(alarm.time - window.inject_time)
        else:
            score = self._score(self._primary_fault())
            score.false_alarms += 1
        score.alarms += 1
        if latency is not None:
            if latency.total_sim_s is not None:
                score.sample_to_alarm_sim_s.append(latency.total_sim_s)
                if latency.total_wall_s is not None:
                    score.sample_to_alarm_wall_s.append(latency.total_wall_s)
            else:
                score.unmeasured_alarms += 1
        return score.fault

    def observe_decisions(
        self, detector: str, decisions: Sequence[WindowDecision]
    ) -> None:
        """Score one detector round of node-window decisions online."""
        primary = self._primary_fault()
        for decision in decisions:
            self.decisions_seen += 1  # fpt: noqa[FPT401] -- single writer: only the scheduler thread observes; ops threads read
            covering = None
            for window in self._truths:
                if window.covers_window(
                    decision.node, decision.window_start, decision.window_end
                ):
                    covering = window
                    break
            fault = covering.fault if covering is not None else primary
            counts = self._score(fault).detector_counts(detector)
            if covering is not None and decision.alarmed:
                counts.true_positives += 1
            elif covering is not None:
                counts.false_negatives += 1
            elif decision.alarmed:
                counts.false_positives += 1
            else:
                counts.true_negatives += 1

    # -- views ---------------------------------------------------------------

    def fault_scores(self) -> Dict[str, FaultScore]:
        return dict(self._scores)

    def totals(self) -> ConfusionCounts:
        totals = ConfusionCounts()
        for score in self._scores.values():
            for counts in score.detectors.values():
                totals.add(counts)
        return totals

    def snapshot(self) -> dict:
        """JSON-serializable scoreboard state (the BENCH payload body)."""
        totals = self.totals()
        return {
            "format": SCOREBOARD_FORMAT,
            "alarms_seen": self.alarms_seen,
            "decisions_seen": self.decisions_seen,
            "truths": [w.to_json_obj() for w in self._truths],
            "faults": {
                fault: score.to_json_obj()
                for fault, score in sorted(self._scores.items())
            },
            "totals": {
                "tp": totals.true_positives,
                "fp": totals.false_positives,
                "fn": totals.false_negatives,
                "tn": totals.true_negatives,
                "balanced_accuracy": round(totals.balanced_accuracy, 4),
            },
        }


def write_scoreboard_json(
    scoreboard: Scoreboard,
    directory: Optional[str] = None,
    name: str = "scoreboard",
) -> str:
    """Write ``BENCH_<name>.json`` into ``directory`` (default: the
    working directory)."""
    target_dir = str(directory) if directory else "."
    os.makedirs(target_dir, exist_ok=True)
    payload = scoreboard.snapshot()
    payload["created_unix"] = int(time.time())
    path = os.path.join(target_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path
