"""Incremental Hadoop log parser producing per-second state vectors.

Implements the paper's white-box extraction (section 4.4, Figure 5):
instead of text-mining, an a-priori mapping from log-line shapes to
state-entrance / state-exit / instant events is applied while streaming
through the natively generated tasktracker and datanode logs.  Counting
live states per second yields a numerical vector time series that is
directly comparable across nodes.

:class:`StateVectorStream` is what ``hadoop_log_rpcd`` runs.  It is
*lazy and bounded* -- "all information from prior log entries is
summarized and stored in compact internal representations for just
sufficiently long durations": every event becomes a per-second delta on
a running 8-count row, each second is emitted once in O(1), and nothing
is kept of an interval once it has closed.  The line front end
(:class:`_LogReader`) and the shape -> event mapping are shared with the
interval-scan parser the stream is tested against
(``tests/hadoop/log_oracle.py``).
"""

from __future__ import annotations

import math
import re
from operator import add
from typing import Dict, List, Optional, Tuple

from .logs import parse_timestamp
from .states import WHITEBOX_STATE_INDEX, WHITEBOX_STATES

__all__ = ["StateVectorStream"]

_TIMESTAMP_PREFIX = re.compile(
    r"^(\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2},\d{3}) \w+ (\S+): (.*)$"
)

_LAUNCH = re.compile(r"^LaunchTaskAction: (task_\S+)$")
_DONE = re.compile(r"^Task (task_\S+) is done\.$")
_REMOVED = re.compile(r"^Removing task '(task_\S+)' from running tasks$")
_PROGRESS_PHASE = re.compile(r"^(task_\S+) [\d.]+% reduce > (copy|sort|reduce)")
_RECEIVING = re.compile(r"^Receiving block (blk_\d+) ")
_RECEIVED = re.compile(r"^Received block (blk_\d+) ")
_SERVED = re.compile(r"Served block (blk_\d+) to ")
_DELETING = re.compile(r"^Deleting block (blk_\d+) ")

#: Reduce phase as the progress line names it -> the state it counts in.
_PHASE_STATE = {"copy": "ReduceCopy", "sort": "ReduceSort", "reduce": "ReduceReduce"}


def _is_map_task(attempt_id: str) -> bool:
    return "_m_" in attempt_id


def _tasktracker_event(message: str) -> Optional[Tuple[str, str, str]]:
    """``(kind, attempt, phase)`` of a tasktracker message, ``kind`` one
    of launch / finish / phase; None for any other shape."""
    match = _LAUNCH.match(message)
    if match:
        return "launch", match.group(1), ""
    match = _DONE.match(message) or _REMOVED.match(message)
    if match:
        return "finish", match.group(1), ""
    match = _PROGRESS_PHASE.match(message)
    if match:
        return "phase", match.group(1), match.group(2)
    return None


def _datanode_event(message: str) -> Optional[Tuple[str, str]]:
    """``(kind, block)`` of a datanode message, ``kind`` one of
    receiving / received / served / deleting; None for any other shape."""
    match = _RECEIVING.match(message)
    if match:
        return "receiving", match.group(1)
    match = _RECEIVED.match(message)
    if match:
        return "received", match.group(1)
    match = _SERVED.search(message)
    if match:
        return "served", match.group(1)
    match = _DELETING.match(message)
    if match:
        return "deleting", match.group(1)
    return None


class _LogReader:
    """Line front end: timestamp, daemon class and message shape.

    Feed raw log lines (any order across daemons, time-ordered per
    daemon); subclasses receive the events through :meth:`_task_event`
    and :meth:`_block_event`.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        #: Latest log timestamp seen (states before it are stable), or None.
        self.latest: Optional[float] = None
        self.lines_parsed = 0
        self.lines_skipped = 0

    def feed_line(self, line: str) -> None:
        """Parse one raw Hadoop log line; unknown shapes are skipped."""
        match = _TIMESTAMP_PREFIX.match(line)
        if not match:
            self.lines_skipped += 1
            return
        timestamp_text, java_class, message = match.groups()
        try:
            time = parse_timestamp(timestamp_text)
        except ValueError:
            self.lines_skipped += 1
            return
        self.latest = time if self.latest is None else max(self.latest, time)
        if java_class.endswith("TaskTracker"):
            event = _tasktracker_event(message)
            if event is not None:
                self._task_event(time, *event)
            self.lines_parsed += 1
        elif java_class.endswith("DataNode"):
            block_event = _datanode_event(message)
            if block_event is not None:
                self._block_event(time, *block_event)
            self.lines_parsed += 1
        else:
            self.lines_skipped += 1

    def watermark(self) -> Optional[float]:
        return self.latest

    def _task_event(self, time: float, kind: str, attempt: str, phase: str) -> None:
        raise NotImplementedError

    def _block_event(self, time: float, kind: str, block: str) -> None:
        raise NotImplementedError


_MAP, _REDUCE = WHITEBOX_STATE_INDEX["MapTask"], WHITEBOX_STATE_INDEX["ReduceTask"]
_PHASE_INDEX = {
    phase: WHITEBOX_STATE_INDEX[state] for phase, state in _PHASE_STATE.items()
}
_WRITE = WHITEBOX_STATE_INDEX["WriteBlock"]
_INSTANT_INDEX = {
    "served": WHITEBOX_STATE_INDEX["ReadBlock"],
    "deleting": WHITEBOX_STATE_INDEX["DeleteBlock"],
}

#: One change of an open interval's contribution: (second it takes
#: effect, state index, +1.0 or -1.0).
_Op = Tuple[int, int, float]


class StateVectorStream(_LogReader):
    """Per-second state vectors, each emitted once, in O(1) a second.

    Every event becomes a delta on the second it first shows in the
    interval-scan answer: an interval counts from ``ceil(start)`` and
    stops counting at ``ceil(end)``, a phase change swaps two counts at
    ``ceil(t)``, an instant counts in ``floor(t)`` only.  :meth:`take`
    adds the deltas of each second onto the running row.  A line older
    than the cursor cannot change a second that was already emitted, so
    its delta is *folded* onto the cursor; an instant that old is lost,
    as it is to a pruned interval scan.

    Only open intervals are remembered, each as the list of deltas it
    has made, so that closing one -- or launching it again while it is
    open, which makes the scan forget the first start -- can take back
    exactly what it still contributes from some second on.  The rows
    equal an interval scan's state vector asked at the moment of emission
    whenever each interval's own lines arrive in time order; attempt and
    block ids are taken to be unique to one interval, as Hadoop's are.
    """

    def __init__(self, node: str) -> None:
        super().__init__(node)
        #: The next second :meth:`take` emits.
        self.cursor = 0
        self._row = [0.0] * len(WHITEBOX_STATES)
        #: second >= cursor -> change of every count taking effect there
        self._deltas: Dict[int, List[float]] = {}
        #: open attempt or block -> the deltas it has made
        self._open: Dict[str, List[_Op]] = {}

    def _shift(self, second: int, index: int, amount: float) -> None:
        change = self._deltas.get(second)
        if change is None:
            change = self._deltas[second] = [0.0] * len(self._row)
        change[index] += amount

    def _apply(self, ops: List[_Op], second: int, index: int, amount: float) -> None:
        """One more delta of an open interval, never before its last one."""
        second = max(second, self.cursor, ops[-1][0] if ops else second)
        self._shift(second, index, amount)
        ops.append((second, index, amount))

    def _retract(self, ops: List[_Op], since: int) -> None:
        """Take back, from second ``since`` on, everything ``ops`` added."""
        for second, index, amount in ops:
            self._shift(max(second, since), index, -amount)

    def _open_interval(self, key: str, time: float, *indexes: int) -> None:
        ops = self._open.get(key)
        if ops is not None:
            self._retract(ops, self.cursor)
        ops = self._open[key] = []
        for index in indexes:
            self._apply(ops, math.ceil(time), index, 1.0)

    def _close_interval(self, key: str, time: float) -> None:
        ops = self._open.pop(key, None)
        if ops is not None:
            self._retract(ops, max(math.ceil(time), self.cursor))

    def _task_event(self, time: float, kind: str, attempt: str, phase: str) -> None:
        if kind == "finish":
            self._close_interval(attempt, time)
        elif _is_map_task(attempt):
            if kind == "launch":
                self._open_interval(attempt, time, _MAP)
        elif kind == "launch":
            # A reduce launched again while open keeps the phase it was in.
            ops = self._open.get(attempt)
            held = ops[-1][1] if ops else _PHASE_INDEX["copy"]
            self._open_interval(attempt, time, _REDUCE, held)
        else:
            ops = self._open.get(attempt)
            entered = _PHASE_INDEX[phase]
            if ops and ops[-1][1] != entered:
                second = math.ceil(time)
                self._apply(ops, second, ops[-1][1], -1.0)
                self._apply(ops, second, entered, 1.0)

    def _block_event(self, time: float, kind: str, block: str) -> None:
        if kind == "receiving":
            self._open_interval(block, time, _WRITE)
        elif kind == "received":
            self._close_interval(block, time)
        else:
            second = math.floor(time)
            if second >= self.cursor:
                self._shift(second, _INSTANT_INDEX[kind], 1.0)
                self._shift(second + 1, _INSTANT_INDEX[kind], -1.0)

    def take(self, end: int) -> List[List[float]]:
        """The rows of seconds ``[cursor, end)``, oldest first; the
        cursor moves to ``end``.  Empty when ``end <= cursor``.  A second
        with no pending delta is handed the running row itself; a delta
        makes a new one, so no row handed out changes (nor may be written)."""
        row, deltas = self._row, self._deltas
        rows = []
        for second in range(self.cursor, end):
            change = deltas.pop(second, None) if deltas else None
            if change is not None:
                row = list(map(add, row, change))
            rows.append(row)
        if rows:
            self.cursor = end
            self._row = row
        return rows
