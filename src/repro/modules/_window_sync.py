"""Shared plumbing for the analysis modules: the fleet-wide window ring,
the peer-comparison skeleton, single-stream timed windows, and
consecutive-anomaly counting.

The two peer-comparison analyses (black-box and white-box) are one
module, :class:`PeerComparisonModule`, with two statistics: per-node
per-second samples land in one :class:`FleetWindow`, every completed
round -- one window per node -- is compared across the peers, and a node
is fingerpointed only after several consecutive anomalous windows (the
paper needed "at least 3 consecutive windows to gain confidence in our
detection").  :class:`TimedWindow` is the window of the single-stream
modules (``mavgvec``, ``syscall_anomaly``).
"""

from __future__ import annotations

from typing import ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.metrics import Alarm, WindowDecision
from ..core import Module, RunReason
from ..core.errors import ConfigError, ModuleError


class FleetWindow:
    """One sliding window over every node, in a single time-major ring.

    A float64 ring of shape ``(capacity, nodes, metrics)`` (``2 * size``
    rows to start, the width fixed by the first push) with one start
    index for the fleet -- rounds advance every node together -- and one
    end index per node.  A round is released once the slowest node has
    completed it, as the contiguous view ``ring[start:start + size]``.
    Time-major so that the window statistics, reducing over axis 0, run
    their inner loop over ``nodes x metrics`` contiguous doubles with the
    bits of the node-major reduction (DESIGN.md "fpt-core hot paths").
    Nothing is dropped: a silent node stops the rounds and costs one ring
    row per sample the others keep sending.
    """

    def __init__(
        self, nodes: Sequence[str], size: int, slide: int, owner: str
    ) -> None:
        if size <= 0 or slide <= 0 or slide > size:
            raise ValueError(f"bad window geometry: size={size}, slide={slide}")
        self.nodes = list(nodes)
        self.size = size
        self.slide = slide
        self._owner = owner  # who to blame in errors: "<type> '<instance>'"
        self._ring: Optional[np.ndarray] = None   # (capacity, nodes, metrics)
        self._times: Optional[np.ndarray] = None  # (capacity, nodes)
        self._capacity = 0
        self._width = 0
        self._start = 0                       # first row of the next round
        self._ends = [0] * len(self.nodes)    # row after each node's newest

    def push(self, column: int, timestamp: float, row) -> None:
        """Append one sample of node ``column``: a float64 vector of the
        ring's width, or a bare number when that width is 1."""
        width = getattr(row, "size", 1)
        if self._ring is None:
            self._capacity = 2 * self.size
            self._width = width
            self._ring = np.empty((self._capacity, len(self.nodes), width))
            self._times = np.empty((self._capacity, len(self.nodes)))
        elif width != self._width:
            raise ModuleError(
                f"{self._owner}: node '{self.nodes[column]}' sent a row of "
                f"width {width}; the window ring holds rows of width "
                f"{self._width}"
            )
        at = self._ends[column]
        if at == self._capacity:
            at = self._make_room(column)
        self._ring[at, column] = row
        self._times[at, column] = timestamp
        self._ends[column] = at + 1

    def _make_room(self, column: int) -> int:
        """Move the live rows to the front of a fresh ring, twice the
        size if they fill over half of this one; returns ``column``'s row."""
        start, stop = self._start, max(self._ends)
        if 2 * (stop - start) > self._capacity:
            self._capacity *= 2
        ring = np.empty((self._capacity,) + self._ring.shape[1:])
        times = np.empty(ring.shape[:2])
        ring[: stop - start] = self._ring[start:stop]
        times[: stop - start] = self._times[start:stop]
        self._ring, self._times = ring, times
        self._ends = [end - start for end in self._ends]
        self._start = 0
        return self._ends[column]

    def rounds(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield every round now complete as ``(starts, ends, block)``: the
        ``(size, nodes, metrics)`` window of every node and each node's
        own first / last timestamp in it.  All three are views into the
        ring, valid until the next ``push``: reduce them, do not keep them.
        """
        size = self.size
        while min(self._ends) - self._start >= size:
            start = self._start
            self._start = start + self.slide
            yield (
                self._times[start], self._times[start + size - 1],
                self._ring[start : start + size],
            )


class TimedWindow:
    """A streaming window over one stream: a :class:`FleetWindow` of one
    node that emits ``(start_time, end_time, matrix)`` for every completed
    window, ``matrix`` a ``(size, n_metrics)`` copy the caller may keep.
    """

    def __init__(self, size: int, slide: int) -> None:
        self._ring = FleetWindow(("stream",), size, slide, "window")

    def __len__(self) -> int:
        return self._ring._ends[0] - self._ring._start

    def push(self, timestamp: float, value) -> List[Tuple[float, float, np.ndarray]]:
        row = np.atleast_1d(np.asarray(value, dtype=float))
        self._ring.push(0, float(timestamp), row)
        return [
            (float(starts[0]), float(ends[0]), block[:, 0].copy())
            for starts, ends, block in self._ring.rounds()
        ]


class ConsecutiveCounter:
    """Fires once a node has been anomalous N windows in a row.

    ``update`` returns the set of nodes that *cross* the confidence
    threshold this round (an already-firing node keeps firing each round
    while it stays anomalous; callers decide whether to re-alert).
    """

    def __init__(self, nodes: Sequence[str], required: int) -> None:
        if required < 1:
            raise ValueError(f"required consecutive count must be >= 1: {required}")
        self.required = required
        self._streaks: Dict[str, int] = {node: 0 for node in nodes}

    def update(self, anomalous: Dict[str, bool]) -> List[str]:
        fired = []
        for node, is_anomalous in anomalous.items():
            if is_anomalous:
                self._streaks[node] = self._streaks.get(node, 0) + 1
                if self._streaks[node] >= self.required:
                    fired.append(node)
            else:
                self._streaks[node] = 0
        return fired

    def streak(self, node: str) -> int:
        return self._streaks.get(node, 0)


class PeerComparisonModule(Module):
    """The peer-comparison analysis: window, compare, count, alarm.

    One input connection per node (named by its origin), at least three;
    every sample goes into the :class:`FleetWindow`, every released round
    through the detector's statistic, and a node anomalous ``consecutive``
    rounds in a row is fingerpointed on ``alarms``; ``decisions`` and
    ``stats`` carry every round.
    """

    alarm_source: ClassVar[str] = ""  # ``Alarm.source`` of the detector
    default_consecutive: ClassVar[int] = 1

    def init(self) -> None:
        ctx = self.ctx
        owner = f"{self.type_name} '{ctx.instance_id}'"
        self.configure()
        window = ctx.param_int("window", 60)
        slide = ctx.param_int("slide", window)
        self.consecutive = ctx.param_int("consecutive", self.default_consecutive)

        self.connections: Dict[str, object] = {}
        for group in ctx.inputs.values():
            for connection in group:
                origin = connection.origin
                node = origin.node if origin is not None else ""
                if not node:
                    raise ConfigError(
                        f"{owner}: input connection without node origin "
                        "(wire it from sadc, knn or hadoop_log outputs)"
                    )
                if node in self.connections:
                    raise ConfigError(f"{owner}: two inputs for node '{node}'")
                self.connections[node] = connection
        if len(self.connections) < 3:
            raise ConfigError(
                f"{owner}: peer comparison needs at least 3 nodes, got "
                f"{len(self.connections)}"
            )
        self.nodes = sorted(self.connections)
        self._window = FleetWindow(self.nodes, window, slide, owner)
        self._counter = ConsecutiveCounter(self.nodes, self.consecutive)
        self.alarms_out = ctx.create_output("alarms")
        self.decisions_out = ctx.create_output("decisions")
        self.stats_out = ctx.create_output("stats")
        self.rounds_processed = 0
        ctx.trigger_after_updates(len(self.connections))

    def configure(self) -> None:
        """Read the detector's own parameters."""
        raise NotImplementedError

    def compare(self, block: np.ndarray):
        """One round's statistic over the ``(size, nodes, metrics)`` block:
        a list of every node's anomaly flag, a function from a node's
        index to its ``Alarm.detail``, and the detector's ``stats`` dict."""
        raise NotImplementedError

    def feed(self, column: int, sample) -> None:
        """Push one input sample of node ``column`` into the window."""
        value = sample.value
        if not isinstance(value, np.ndarray):
            value = np.asarray(value, dtype=float)
        self._window.push(column, sample.timestamp, value)

    def run(self, reason: RunReason) -> None:
        feed = self.feed
        for column, node in enumerate(self.nodes):
            for sample in self.connections[node].pop_all():
                feed(column, sample)
        for starts, ends, block in self._window.rounds():
            self._process_round(starts.tolist(), ends.tolist(), block)

    def _process_round(
        self, starts: List[float], ends: List[float], block: np.ndarray
    ) -> None:
        flags, detail, stats = self.compare(block)
        nodes = self.nodes
        fired = set(self._counter.update(dict(zip(nodes, flags))))
        now = self.ctx.clock.now()
        decisions: List[WindowDecision] = []
        windows = {}
        for index, node in enumerate(nodes):
            bounds = windows[node] = (starts[index], ends[index] + 1.0)
            decisions.append(WindowDecision(node, *bounds, node in fired))
            if node in fired:
                alarm = Alarm(now, node, self.alarm_source, detail(index))
                self.alarms_out.write(alarm, now)
        self.decisions_out.write(decisions, now)
        self.stats_out.write(
            {"nodes": list(nodes), **stats, "windows": windows}, now
        )
        self.rounds_processed += 1
