"""The interval-scan log parser, kept as the oracle of
:class:`repro.hadoop.log_parser.StateVectorStream`.

It shares the stream's line front end (``_LogReader``) and shape ->
event mapping, but keeps every interval until pruned and answers
:meth:`NodeLogParser.state_vector` for any second by scanning them.  The
stream's rows must equal ``state_vector`` asked at the moment of
emission (``test_log_parser.py``).  It has no caller in ``src/``.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hadoop.log_parser import _PHASE_STATE, _LogReader, _is_map_task
from repro.hadoop.states import (
    DATANODE_STATES,
    TASKTRACKER_STATES,
    WHITEBOX_STATE_INDEX,
    WHITEBOX_STATES,
)


@dataclass
class _Interval:
    """A closed state occupancy [start, end)."""

    start: float
    end: float


class _TaskTrackerParser:
    """Tracks MapTask/ReduceTask intervals and reduce phase timelines."""

    def __init__(self) -> None:
        self.open_tasks: Dict[str, float] = {}
        self.closed_maps: List[_Interval] = []
        self.closed_reduces: List[Tuple[str, _Interval]] = []
        #: attempt id -> ordered (time, phase) transitions.
        self.phases: Dict[str, List[Tuple[float, str]]] = {}

    def event(self, time: float, kind: str, attempt: str, phase: str) -> None:
        if kind == "launch":
            self.open_tasks[attempt] = time
            if not _is_map_task(attempt):
                self.phases.setdefault(attempt, [(time, "copy")])
        elif kind == "finish":
            start = self.open_tasks.pop(attempt, None)
            if start is None:
                return
            interval = _Interval(start=start, end=time)
            if _is_map_task(attempt):
                self.closed_maps.append(interval)
            else:
                self.closed_reduces.append((attempt, interval))
        elif attempt in self.open_tasks and not _is_map_task(attempt):
            # A phase line counts for a running reduce only.
            timeline = self.phases[attempt]
            if timeline[-1][1] != phase:
                timeline.append((time, phase))

    def _phase_at(self, attempt: str, second: float) -> str:
        timeline = self.phases.get(attempt, [])
        phase = "copy"
        for t, p in timeline:
            if t <= second:
                phase = p
            else:
                break
        return phase

    def counts_at(self, second: float) -> Dict[str, float]:
        counts = {name: 0.0 for name in TASKTRACKER_STATES}

        def covers(start: float, end: Optional[float]) -> bool:
            return start <= second and (end is None or second < end)

        for attempt, start in self.open_tasks.items():
            if not covers(start, None):
                continue
            if _is_map_task(attempt):
                counts["MapTask"] += 1
            else:
                counts["ReduceTask"] += 1
                counts[_PHASE_STATE[self._phase_at(attempt, second)]] += 1
        for interval in self.closed_maps:
            if covers(interval.start, interval.end):
                counts["MapTask"] += 1
        for attempt, interval in self.closed_reduces:
            if covers(interval.start, interval.end):
                counts["ReduceTask"] += 1
                counts[_PHASE_STATE[self._phase_at(attempt, second)]] += 1
        return counts

    def prune(self, before: float) -> None:
        self.closed_maps = [i for i in self.closed_maps if i.end > before]
        kept = []
        for attempt, interval in self.closed_reduces:
            if interval.end > before:
                kept.append((attempt, interval))
            else:
                self.phases.pop(attempt, None)
        self.closed_reduces = kept


class _DataNodeParser:
    """Tracks WriteBlock intervals plus instant Read/Delete events."""

    def __init__(self) -> None:
        self.open_writes: Dict[str, float] = {}
        self.closed_writes: List[_Interval] = []
        self.read_events: List[float] = []
        self.delete_events: List[float] = []

    def event(self, time: float, kind: str, block: str) -> None:
        if kind == "receiving":
            self.open_writes[block] = time
        elif kind == "received":
            start = self.open_writes.pop(block, None)
            if start is not None:
                self.closed_writes.append(_Interval(start=start, end=time))
        elif kind == "served":
            self.read_events.append(time)
        else:
            self.delete_events.append(time)

    def counts_at(self, second: float) -> Dict[str, float]:
        counts = {name: 0.0 for name in DATANODE_STATES}
        for start in self.open_writes.values():
            if start <= second:
                counts["WriteBlock"] += 1
        for interval in self.closed_writes:
            if interval.start <= second < interval.end:
                counts["WriteBlock"] += 1
        counts["ReadBlock"] = float(
            sum(1 for t in self.read_events if second <= t < second + 1.0)
        )
        counts["DeleteBlock"] = float(
            sum(1 for t in self.delete_events if second <= t < second + 1.0)
        )
        return counts

    def prune(self, before: float) -> None:
        self.closed_writes = [i for i in self.closed_writes if i.end > before]
        self.read_events = [t for t in self.read_events if t >= before]
        self.delete_events = [t for t in self.delete_events if t >= before]


class NodeLogParser(_LogReader):
    """Combined tasktracker + datanode parser for one slave node.

    Keeps every interval until pruned; query :meth:`state_vector` for
    any second up to the watermark; :meth:`prune` history the caller
    has consumed.
    """

    def __init__(self, node: str) -> None:
        super().__init__(node)
        self._tt = _TaskTrackerParser()
        self._dn = _DataNodeParser()

    def _task_event(self, time: float, kind: str, attempt: str, phase: str) -> None:
        self._tt.event(time, kind, attempt, phase)

    def _block_event(self, time: float, kind: str, block: str) -> None:
        self._dn.event(time, kind, block)

    def state_vector(self, second: float) -> np.ndarray:
        """State counts at integral ``second``, ordered by the catalog."""
        second = math.floor(second)
        counts = self._tt.counts_at(second)
        counts.update(self._dn.counts_at(second))
        vector = np.zeros(len(WHITEBOX_STATES))
        for name, value in counts.items():
            vector[WHITEBOX_STATE_INDEX[name]] = value
        return vector

    def state_vectors(self, start_second: int, end_second: int) -> np.ndarray:
        """Matrix of state vectors for seconds in [start, end)."""
        return np.array(
            [self.state_vector(s) for s in range(start_second, end_second)]
        )

    def prune(self, before: float) -> None:
        """Discard closed history ending before ``before``."""
        self._tt.prune(before)
        self._dn.prune(before)
