"""Host normalisation: a fixed reference kernel interleaved with the workload.

This host's speed drifts by up to 1.7x from one run to the next, so raw
seconds cannot carry a before/after claim.  The kernel below does the
three kinds of work the sample->alarm path does (JSON framing of a
64-key sample, small-matrix numpy classification, an attribute loop over
plain objects).  It runs in short slices between the workload's ticks;
each tick's time is divided by the kernel-iteration time measured around
it, which gives the tick's cost in **calibration units**:
1 cu = one kernel iteration at that moment on this host.

Work and kernel are both priced in **CPU seconds of the process**
(``time.process_time``), not in wall time.  For the single-threaded
workloads the two agree; for ``wire2`` CPU time adds up the poller and
the server threads and leaves out how long a woken thread waited for a
core, which on a shared host says more about the neighbours than about
the program.  Wall time is logged beside it for the raw figures.

Every timed section and every slice is appended to an event log; the
metrics are computed from that log after the run (``normalise``), never
from counters kept inside the loop.
"""

from __future__ import annotations

import json
import math
import time
from typing import List, NamedTuple, Tuple

import numpy as np

#: Kernel-iteration CPU time on the host the baseline was measured on.
#: Only used to express set-up time in seconds (``setup_s`` = set-up cu x
#: this constant).
REF_ITER_S = 200e-6

#: A slice runs once this much wall time has passed since the last one.
SLICE_WALL_S = 0.05

#: Target share of calibration in (calibration + timed work).
CAL_SHARE = 0.10

MIN_ITERS = 10
MAX_ITERS = 400

#: Iterations of the burst that sizes the first slices.
BURST_ITERS = 40

#: Length of the slices between the phases of a set-up.  Set-up runs
#: for seconds without a tick to slice at, so its few slices are long.
PHASE_SLICE_S = 0.1


class _Counter:
    """One plain object of the attribute loop, shaped like a /proc counter."""

    __slots__ = ("key", "value", "previous", "rate")

    def __init__(self, index: int) -> None:
        self.key = f"counter_{index:03d}"
        self.value = float(index)
        self.previous = 0.0
        self.rate = 0.0


class Kernel:
    """The reference work; its inputs never change.

    One iteration spends about a third of its time in each kind of work
    (one framed sample, three classification passes, two counter
    passes).  The kinds slow down differently under a noisy neighbour;
    on this host the even mix tracked a fixed slice of the pipeline
    better than any single kind did.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20090629)
        self.frame = {
            f"metric_{i:02d}": float(rng.random() * 1000.0) for i in range(64)
        }
        self.matrix = rng.random((50, 64)) * 100.0
        self.centroids = rng.random((10, 64)) * 5.0
        self.centroid_norms = (self.centroids ** 2).sum(axis=1)
        self.counters = [_Counter(i) for i in range(256)]

    def iterate(self) -> float:
        text = json.dumps(
            {"id": 1, "result": {"node": self.frame}}, separators=(",", ":")
        )
        node = json.loads(text)["result"]["node"]
        vector = np.array([node[name] for name in self.frame])
        for _ in range(3):
            scaled = np.log1p(np.maximum(self.matrix, 0.0))
            distances = (
                (scaled ** 2).sum(axis=1)[:, None]
                - 2.0 * scaled @ self.centroids.T
                + self.centroid_norms[None, :]
            )
            nearest = distances.argmin(axis=1)
        total = 0.0
        for _ in range(2):
            rates = {}
            for counter in self.counters:
                counter.value += 1.5
                counter.rate = (counter.value - counter.previous) / 1.0
                counter.previous = counter.value
                rates[counter.key] = counter.rate
                total += counter.rate
        return total + float(nearest[0]) + float(vector[0])


class Stamp(NamedTuple):
    """One reading of both clocks."""

    wall: float   # time.perf_counter()
    cpu: float    # time.process_time()


def stamp() -> Stamp:
    return Stamp(time.perf_counter(), time.process_time())


class Event(NamedTuple):
    """One entry of the event log."""

    kind: str     # "cal", or the kind of timed work ("tick", "build", ...)
    start: Stamp
    end: Stamp
    count: int    # kernel iterations of a "cal" entry; 1 for work

    @property
    def cpu_s(self) -> float:
        return self.end.cpu - self.start.cpu

    @property
    def wall_s(self) -> float:
        return self.end.wall - self.start.wall


class Calibrator:
    """Runs kernel slices between timed sections and keeps the event log."""

    def __init__(self) -> None:
        self.kernel = Kernel()
        self.events: List[Event] = []
        #: Every slice ever run; the per-repeat logs above get cut, this
        #: one does not, so set-up can be priced across them.
        self.slices: List[Event] = []
        self._work_since_cal = 0.0
        self.iter_s = 1.0
        self._run(BURST_ITERS)

    def _run(self, iters: int) -> Event:
        iterate = self.kernel.iterate
        start = stamp()
        for _ in range(iters):
            iterate()
        event = Event("cal", start, stamp(), iters)
        self.iter_s = max(event.cpu_s, 1e-9) / iters
        self._last_cal = event.end.wall
        self._work_since_cal = 0.0
        return event

    def work(self, kind: str, start: Stamp, end: Stamp) -> None:
        """Log one timed section of the workload."""
        self.events.append(Event(kind, start, end, 1))
        self._work_since_cal += end.cpu - start.cpu

    def maybe_slice(self) -> None:
        if time.perf_counter() - self._last_cal >= SLICE_WALL_S:
            self.slice()

    def slice(self, seconds: float = 0.0) -> None:
        """One calibration slice, sized to ``CAL_SHARE`` of the work it
        follows, or to ``seconds`` if that is longer."""
        wanted = max(CAL_SHARE * self._work_since_cal, seconds)
        iters = max(MIN_ITERS, min(MAX_ITERS, int(wanted / self.iter_s)))
        event = self._run(iters)
        self.events.append(event)
        self.slices.append(event)

    def phase(self) -> None:
        """Mark the boundary between two phases of a set-up."""
        self.slice(PHASE_SLICE_S)

    def take_events(self) -> List[Event]:
        """Close the open slice and hand over the log of one repeat."""
        self.slice()
        events, self.events = self.events, []
        return events


class Normalised(NamedTuple):
    kind: str
    cu: float      # CPU seconds / kernel-iteration CPU seconds around it
    wall_s: float


def normalise(events: List[Event]) -> Tuple[List[Normalised], List[float]]:
    """Divide every work entry by the kernel-iteration time around it.

    The divisor is the mean of the calibration slices just before and
    just after the entry's stretch of work (the one after, when the log
    has none before), so a drift in host speed across the stretch
    cancels to first order.  Returns the normalised work entries and the
    per-slice iteration times (CPU seconds).  The log must end with a
    ``cal`` entry, which :meth:`Calibrator.take_events` guarantees.
    """
    out: List[Normalised] = []
    iter_times: List[float] = []
    pending: List[Event] = []
    before = None
    for event in events:
        if event.kind != "cal":
            pending.append(event)
            continue
        after = event.cpu_s / event.count
        iter_times.append(after)
        iter_s = after if before is None else (before + after) / 2.0
        for work in pending:
            out.append(Normalised(work.kind, work.cpu_s / iter_s, work.wall_s))
        pending = []
        before = after
    if pending:
        raise ValueError("event log does not end with a calibration slice")
    return out, iter_times


def normalise_gaps(slices: List[Event]) -> Tuple[float, float]:
    """Cost in cu, and wall seconds, of everything between the slices.

    For stretches the harness cannot tick through (set-up): whatever
    ran between two consecutive slices counts as work, divided by the
    mean of the two.
    """
    total_cu = total_wall = 0.0
    for before, after in zip(slices, slices[1:]):
        iter_s = (before.cpu_s / before.count + after.cpu_s / after.count) / 2.0
        total_cu += (after.start.cpu - before.end.cpu) / iter_s
        total_wall += after.start.wall - before.end.wall
    return total_cu, total_wall


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
