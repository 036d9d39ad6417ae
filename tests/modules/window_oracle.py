"""The per-node window machinery the analyses ran on before the fleet
ring, kept as the parity oracle: one list-based window per node and an
aligner that releases a round once every node has queued a window.

:class:`repro.modules._window_sync.FleetWindow` must release exactly the
rounds ``ReferenceTimedWindow`` + ``WindowAligner`` release, at the same
moments, with the same numbers.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np


class ReferenceTimedWindow:
    """The original list-based TimedWindow."""

    def __init__(self, size, slide):
        self.size = size
        self.slide = slide
        self._times = []
        self._values = []

    def push(self, timestamp, value):
        self._times.append(float(timestamp))
        self._values.append(np.atleast_1d(np.asarray(value, dtype=float)))
        completed = []
        while len(self._values) >= self.size:
            matrix = np.array(self._values[: self.size])
            completed.append(
                (self._times[0], self._times[self.size - 1], matrix)
            )
            del self._times[: self.slide]
            del self._values[: self.slide]
        return completed


class WindowAligner:
    """Aligns completed windows across nodes by window index.

    Each node's window stream is pushed in independently; a *round* --
    one window from every node, all with the same index -- is released
    as soon as it is complete.  Peer comparison is only meaningful on
    complete rounds.
    """

    def __init__(self, nodes: Sequence[str]) -> None:
        self.nodes = list(nodes)
        self._queues: Dict[str, List[Tuple[float, float, np.ndarray]]] = {
            node: [] for node in self.nodes
        }

    def push(
        self, node: str, windows: List[Tuple[float, float, np.ndarray]]
    ) -> List[Dict[str, Tuple[float, float, np.ndarray]]]:
        self._queues[node].extend(windows)
        rounds = []
        while all(self._queues[n] for n in self.nodes):
            rounds.append({n: self._queues[n].pop(0) for n in self.nodes})
        return rounds
