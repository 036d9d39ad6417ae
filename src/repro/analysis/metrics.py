"""Detection-quality metrics (paper section 4.6).

Ground truth is per node-window: a window on the culprit node that
overlaps the fault's activity is *problematic*; every other node-window
is *problem-free*.  From the per-node-window alarm decisions we compute:

* **false-positive rate** -- alarms on problem-free node-windows;
* **balanced accuracy** -- mean of the true-positive and true-negative
  rates ("averages the probability of correctly identifying problematic
  and problem-free windows");
* **fingerpointing latency** -- time from fault injection to the first
  alarm naming the culprit node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Alarm:
    """One fingerpointing alarm: a node indicted at a point in time."""

    time: float
    node: str
    source: str = ""      # which analysis raised it (blackbox/whitebox)
    detail: str = ""
    #: Provenance: full names of the outputs this alarm was forwarded
    #: through (oldest first).  Combinators such as ``alarm_union``
    #: append their delivering upstream output here, so sinks and the
    #: alarm records can name the analysis that actually raised the alarm
    #: even after several forwarding hops.
    via: Tuple[str, ...] = ()

    def describe(self) -> str:
        origin = f" [{self.source}]" if self.source else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"t={self.time:.0f}s{origin} culprit={self.node}{detail}"

    @property
    def raised_by(self) -> Optional[str]:
        """Full name of the output that originally raised this alarm."""
        return self.via[0] if self.via else None


@dataclass(frozen=True)
class GroundTruth:
    """What was actually injected in a run."""

    faulty_node: Optional[str]    # None for fault-free runs
    inject_time: float = 0.0
    clear_time: Optional[float] = None  # None = active until run end

    def window_is_problematic(
        self, node: str, window_start: float, window_end: float
    ) -> bool:
        if self.faulty_node is None or node != self.faulty_node:
            return False
        end = self.clear_time if self.clear_time is not None else float("inf")
        return window_start < end and window_end > self.inject_time


@dataclass
class ConfusionCounts:
    """Node-window confusion matrix plus the derived rates."""

    true_positives: int = 0
    false_positives: int = 0
    true_negatives: int = 0
    false_negatives: int = 0

    @property
    def total(self) -> int:
        return (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )

    @property
    def true_positive_rate(self) -> float:
        positives = self.true_positives + self.false_negatives
        return self.true_positives / positives if positives else 0.0

    @property
    def true_negative_rate(self) -> float:
        negatives = self.true_negatives + self.false_positives
        return self.true_negatives / negatives if negatives else 0.0

    @property
    def false_positive_rate(self) -> float:
        negatives = self.true_negatives + self.false_positives
        return self.false_positives / negatives if negatives else 0.0

    @property
    def balanced_accuracy(self) -> float:
        """Mean of TPR and TNR, in [0, 1]."""
        return 0.5 * (self.true_positive_rate + self.true_negative_rate)

    def add(self, other: "ConfusionCounts") -> None:
        self.true_positives += other.true_positives
        self.false_positives += other.false_positives
        self.true_negatives += other.true_negatives
        self.false_negatives += other.false_negatives


class WindowDecision(NamedTuple):
    """One node-window alarm decision (one per node per round)."""

    node: str
    window_start: float
    window_end: float
    alarmed: bool


def score_decisions(
    decisions: Sequence[WindowDecision], truth: GroundTruth
) -> ConfusionCounts:
    """Score per-node-window decisions against the ground truth."""
    counts = ConfusionCounts()
    for decision in decisions:
        problematic = truth.window_is_problematic(
            decision.node, decision.window_start, decision.window_end
        )
        if problematic and decision.alarmed:
            counts.true_positives += 1
        elif problematic and not decision.alarmed:
            counts.false_negatives += 1
        elif not problematic and decision.alarmed:
            counts.false_positives += 1
        else:
            counts.true_negatives += 1
    return counts


def fingerpointing_latency(
    alarms: Sequence[Alarm], truth: GroundTruth
) -> Optional[float]:
    """Seconds from injection to the first alarm naming the culprit.

    ``None`` when the culprit was never fingerpointed (or the run was
    fault-free).  The paper measures "the time interval between the
    injection of the problem by us and the raising of the corresponding
    alarm".
    """
    if truth.faulty_node is None:
        return None
    candidates = [
        alarm.time - truth.inject_time
        for alarm in alarms
        if alarm.node == truth.faulty_node and alarm.time >= truth.inject_time
    ]
    return min(candidates) if candidates else None


def alarms_by_node(alarms: Sequence[Alarm]) -> Dict[str, List[Alarm]]:
    grouped: Dict[str, List[Alarm]] = {}
    for alarm in alarms:
        grouped.setdefault(alarm.node, []).append(alarm)
    return grouped
