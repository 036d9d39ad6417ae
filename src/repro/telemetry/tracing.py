"""Lightweight span/event tracing for the fpt-core.

Records *complete events* (a name, a category, a wall-clock start and a
duration) plus *instant events* (a point in time), in memory, with two
export formats:

* **JSONL** -- one JSON object per line, trivially greppable;
* **Chrome trace-event format** -- a ``{"traceEvents": [...]}`` document
  loadable in ``chrome://tracing`` / Perfetto, with one row ("thread")
  per module instance so a run reads like a swimlane diagram.

The tracer is designed around a *disabled-by-default* hot path: callers
check ``tracer.enabled`` (one attribute access) and skip event
construction entirely when tracing is off.  ``span()`` returns a shared
no-op context manager in that case, so even unconditional ``with``
usage costs almost nothing.

Timestamps are wall-clock (``time.perf_counter``) because trace viewers
want real durations; the simulated fpt-core timestamp travels in each
event's ``args`` so simulated and real time can be correlated.

Cluster mode adds *remote-span stitching*: every tracer knows its OS pid,
a process name and a ``time.time()`` epoch anchor captured at the same
instant as its ``perf_counter`` epoch.  :func:`stitch_chrome_traces`
merges the Chrome-trace exports of several daemons into one timeline by
offsetting each document onto the shared wall clock, keyed by pid, so a
sample span in a collection daemon and the alarm span in the central
analysis daemon render as one cross-process trace (correlated by the
``trace_id`` each span carries in its args).
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from collections.abc import Sequence
from contextlib import contextmanager, nullcontext
from math import isnan
from sys import intern
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set

__all__ = [
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "stitch_chrome_traces",
    "pids_by_trace_id",
]

#: Events recorded beyond this cap are counted but dropped, bounding the
#: memory of very long traced runs.  A 10-slave scenario records 27 953
#: events per 1 200 simulated seconds: 2^20 events is ~12.5 hours of it
#: (~2.8 hours at 50 slaves).  A retained run event is 51 bytes of column
#: the collector never walks (~50 MB full); as a tuple with its own args
#: dict it was 368 bytes, two of the five objects GC-tracked.
DEFAULT_MAX_EVENTS = 1 << 20

_NAN = float("nan")


class TraceEvent(NamedTuple):
    """One recorded event (Chrome trace-event "X" or "i" phase)."""

    name: str
    category: str
    phase: str            # "X" complete, "i" instant
    start_s: float        # perf_counter seconds since tracer creation
    duration_s: float     # 0.0 for instant events
    track: str            # rendered as the event's thread (swimlane)
    args: Dict[str, Any]

    def to_chrome(self, pid: int = 1) -> dict:
        event = {
            "name": self.name,
            "cat": self.category or "default",
            "ph": self.phase,
            "ts": round(self.start_s * 1e6, 3),   # microseconds
            "pid": pid,
            "tid": self.track,
            "args": self.args,
        }
        if self.phase == "X":
            event["dur"] = round(self.duration_s * 1e6, 3)
        else:
            event["s"] = "t"  # instant scope: thread
        return event

    def to_json_obj(self) -> dict:
        obj = {
            "name": self.name,
            "cat": self.category,
            "ph": self.phase,
            "start_s": self.start_s,
            "track": self.track,
        }
        if self.phase == "X":
            obj["duration_s"] = self.duration_s
        if self.args:
            obj["args"] = self.args
        return obj


#: What ``span()`` hands out while tracing is off: shared, does nothing.
_NULL_SPAN = nullcontext()


class _Rows(Sequence):
    """``tracer.events``: the recorded events, kept as rows of two flat
    columns and read as a sequence of :class:`TraceEvent`, each built
    when asked for and kept by nobody.

    ``times`` holds start, duration and simulated time as packed doubles
    (NaN = an instant / none given); ``refs`` holds name, category and
    track, references to strings the rows share; ``extra`` holds, by
    row, the args beyond ``sim_time_s``, which few events have.
    """

    __slots__ = ("times", "refs", "extra")

    def __init__(self) -> None:
        self.times = array("d")
        self.refs: List[str] = []
        self.extra: Dict[int, Dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self.refs) // 3

    def __getitem__(self, index):
        rows = range(len(self))[index]  # normalises, or raises IndexError
        if isinstance(index, slice):
            return [self._event(row) for row in rows]
        return self._event(rows)

    def __iter__(self):  # the exports' path: no per-index normalising
        return map(self._event, range(len(self)))

    def _event(self, row: int) -> TraceEvent:
        at = 3 * row
        start_s, duration_s, sim_time_s = self.times[at:at + 3]
        name, category, track = self.refs[at:at + 3]
        args = {} if isnan(sim_time_s) else {"sim_time_s": sim_time_s}
        if row in self.extra:
            args.update(self.extra[row])
        if isnan(duration_s):
            return TraceEvent(name, category, "i", start_s, 0.0, track, args)
        return TraceEvent(name, category, "X", start_s, duration_s, track, args)

    def __eq__(self, other) -> bool:
        return list(self) == other


class Tracer:
    """In-memory trace recorder with JSONL and Chrome exports."""

    def __init__(self, enabled: bool = True,
                 max_events: int = DEFAULT_MAX_EVENTS,
                 process_name: str = "") -> None:
        self.enabled = enabled
        self.max_events = max_events
        self.events = _Rows()
        self.dropped = 0
        # A row is two extends, and server threads share the scheduler's
        # tracer: interleaved, the columns would misalign.
        self._lock = threading.Lock()
        # The two epochs are read back-to-back so wall_epoch anchors the
        # perf_counter timeline on the shared wall clock -- this is what
        # lets stitch_chrome_traces align documents across processes.
        self._epoch = time.perf_counter()
        self.wall_epoch = time.time()
        self.pid = os.getpid()
        self.process_name = process_name or f"pid{self.pid}"

    # -- recording -----------------------------------------------------------

    def record(self, name: str, category: str, start_perf_s: float,
               duration_s: float, track: str, sim_time_s: float = _NAN,
               extra: Optional[Dict[str, Any]] = None) -> None:
        """Append a row, for a caller that checked ``enabled``: all
        positional, ``duration_s`` NaN for an instant, ``extra`` the
        args beyond ``sim_time_s`` (kept, not copied)."""
        rows = self.events
        with self._lock:
            if len(rows) >= self.max_events:
                self.dropped += 1
                return
            if extra:
                rows.extra[len(rows)] = extra
            rows.times.extend((start_perf_s - self._epoch, duration_s, sim_time_s))
            rows.refs.extend((name, category, track))

    def span(self, name: str, category: str = "", track: str = "core",
             **args: Any):
        """Measure a block: ``with tracer.span("run", track=instance): ...``"""
        if self.enabled:
            return self._timed(name, category, track, args)
        return _NULL_SPAN

    @contextmanager
    def _timed(self, name: str, category: str, track: str, args: dict):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.complete(name, category, start,
                          time.perf_counter() - start, track, **args)

    def complete(self, name: str, category: str, start_perf_s: float,
                 duration_s: float, track: str = "core", **args: Any) -> None:
        """Record an already-measured complete event.

        ``start_perf_s`` is a raw ``time.perf_counter()`` reading taken by
        the caller (the scheduler measures latency itself so metrics and
        the trace share one pair of clock reads).  A span's name and
        track are often built per call (``rpc.serve:<method>``), so they
        are interned here; :meth:`record` trusts its caller's.
        """
        if self.enabled:
            self.record(intern(name), category, start_perf_s, duration_s,
                        intern(track), extra=args)

    def instant(self, name: str, category: str = "", track: str = "core",
                **args: Any) -> None:
        if self.enabled:
            self.complete(name, category, time.perf_counter(), _NAN, track,
                          **args)

    # -- export --------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The ``chrome://tracing`` / Perfetto JSON document."""
        return {
            "traceEvents": [event.to_chrome(self.pid) for event in self.events],
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.telemetry",
                "droppedEvents": self.dropped,
                "pid": self.pid,
                "processName": self.process_name,
                "wallEpoch": self.wall_epoch,
            },
        }

    def render_chrome_trace(self) -> str:
        return json.dumps(self.to_chrome_trace())

    def render_jsonl(self) -> str:
        return "\n".join(
            json.dumps(event.to_json_obj()) for event in self.events
        ) + ("\n" if self.events else "")

    def write_chrome_trace(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render_chrome_trace())

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render_jsonl())


# -- remote-span stitching ----------------------------------------------------


def stitch_chrome_traces(docs: Sequence[dict]) -> dict:
    """Merge several daemons' Chrome-trace exports into one timeline.

    Each document's events are offset onto the shared wall clock using
    its ``otherData.wallEpoch`` anchor (the earliest anchor becomes
    t=0), keeping each document's pid so the merged view renders one
    swimlane group per real process.  Metadata events name each process.
    Documents without an anchor (pre-cluster exports) are merged at
    offset 0.
    """
    anchors = [
        doc.get("otherData", {}).get("wallEpoch")
        for doc in docs
    ]
    known = [a for a in anchors if isinstance(a, (int, float))]
    base = min(known) if known else 0.0
    metadata: List[dict] = []
    events: List[dict] = []
    for doc, anchor in zip(docs, anchors):
        other = doc.get("otherData", {})
        pid = other.get("pid", 1)
        name = other.get("processName") or f"pid{pid}"
        offset_us = (
            (anchor - base) * 1e6 if isinstance(anchor, (int, float)) else 0.0
        )
        metadata.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        })
        for event in doc.get("traceEvents", []):
            merged = dict(event)
            merged["pid"] = pid
            merged["ts"] = round(float(event.get("ts", 0.0)) + offset_us, 3)
            events.append(merged)
    events.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.telemetry.stitch",
            "processes": len(docs),
            "wallEpochBase": base,
        },
    }


def pids_by_trace_id(doc: dict) -> Dict[str, Set[int]]:
    """Which pids contributed spans to each trace_id of a document.

    Reads the ``trace_id`` each RPC span carries in its args; the
    cluster bench asserts at least one trace spans >= 2 distinct pids,
    i.e. remote stitching actually crossed a process boundary.
    """
    out: Dict[str, Set[int]] = {}
    events: Iterable[dict] = doc.get("traceEvents", [])
    for event in events:
        args = event.get("args")
        if not isinstance(args, dict):
            continue
        trace_id = args.get("trace_id")
        if isinstance(trace_id, str):
            out.setdefault(trace_id, set()).add(event.get("pid", 1))
    return out


#: Shared disabled tracer; ``span()`` on it returns the shared no-op span.
NULL_TRACER = Tracer(enabled=False, max_events=0)
