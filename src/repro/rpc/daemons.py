"""The two per-node collection daemons: ``sadc_rpcd`` and ``hadoop_log_rpcd``.

Each monitored slave runs both daemons (paper section 4.3); the ASDF
control node polls them once per second.  ``sadc_rpcd`` wraps the
libsadc sampler over the node's ``/proc``; ``hadoop_log_rpcd`` wraps the
lazy log parser and returns per-second white-box state vectors.

Every daemon meters the CPU time its handlers take (``meter``), which
is what the Table 3 overhead benchmark reports.
"""

from __future__ import annotations

import os
import time
from time import process_time
from collections import deque
from typing import Any, Dict, List, Optional

from ..hadoop.log_parser import StateVectorStream
from ..hadoop.logs import DaemonLog
from ..hadoop.states import WHITEBOX_STATES
from ..sysstat.metrics import NIC_METRICS, NODE_METRICS, PROCESS_METRICS
from .protocol import MetricRow, SeriesRows, intern_catalog

#: Seconds the log parser lags behind real time: Hadoop buffers log
#: writes, and some statistics resolve only one or two iterations later
#: (paper section 3.7).
LOG_PARSER_LAG_S = 2

#: Collection windows one daemon buffers (``ClusterNodeDaemon``) or
#: serves in one call (``HadoopLogDaemon``): bounds memory, and the
#: frame, when the central poller falls behind.
MAX_BUFFERED_WINDOWS = 240


class _CpuMeter:
    """CPU time spent in RPC handlers, and their calls: a handler reads
    ``process_time()`` on entry and adds the time since on every way out
    (unlocked: a push-mode sampler loop and a poll can race)."""

    __slots__ = ("cpu_seconds", "calls")

    def __init__(self) -> None:
        self.cpu_seconds = 0.0
        self.calls = 0


#: The node-metric catalog both sampling daemons advertise and lay
#: their rows out against.
_NODE_CATALOG = intern_catalog(NODE_METRICS)


class SadcDaemon:
    """``sadc_rpcd``: expose libsadc samples of one node's ``/proc``.

    A sample is the 64-metric node vector (``timestamp``, ``node_name``,
    ``node``).  ``procfs.sampler()`` supplies the sampler: a slot in
    the fleet's one-pass ``sadc`` for the simulator's array-backed
    procfs.
    """

    #: Interned metric catalog the sample rows are laid out on.
    metric_names = _NODE_CATALOG

    def __init__(self, node: str, procfs: Any) -> None:
        self.node = node
        self._sampler = procfs.sampler()
        self.meter = _CpuMeter()

    def rpc_list_metrics(self) -> Dict[str, List[str]]:
        """The metric catalogs, for client-side schema discovery."""
        return {
            "node": list(NODE_METRICS),
            "nic": list(NIC_METRICS),
            "process": list(PROCESS_METRICS),
        }

    def rpc_sample(self, now: float) -> Optional[Dict[str, Any]]:
        """One collection iteration; ``None`` on the priming call."""
        started = process_time()
        try:
            now = float(now)
            row = self._sampler.collect_vector(now)
            if row is None:
                return None
            return {"timestamp": now, "node_name": self.node,
                    "node": MetricRow(_NODE_CATALOG, row)}
        finally:
            self.meter.cpu_seconds += process_time() - started
            self.meter.calls += 1


class HadoopLogDaemon:
    """``hadoop_log_rpcd``: lazy log parsing into state-vector series.

    Tails a Hadoop daemon's log (tasktracker *or* datanode: ``hl-tt`` and
    ``hl-dn`` in Table 4), feeds the streaming state counter, and serves
    each per-second vector once it is *stable* (older than the parser
    lag), once.  A vector spans the full 8-state catalog, so the
    tasktracker's and the datanode's sum per node.
    """

    #: Interned catalog: the state behind each column of a ``collect``
    #: row, which lets the series ride a binary frame.
    metric_names = WHITEBOX_STATES

    def __init__(self, node: str, *logs: DaemonLog) -> None:
        if not logs:
            raise ValueError("HadoopLogDaemon needs at least one log to tail")
        self.node = node
        self._logs = tuple(logs)
        self._offsets = [0] * len(self._logs)
        self._states = StateVectorStream(node)
        self.meter = _CpuMeter()

    def rpc_collect(self, now: float) -> SeriesRows:
        """Return state vectors for newly stable seconds, oldest first.

        ``now`` is the collection time at the control node; seconds up to
        ``now - LOG_PARSER_LAG_S`` (exclusive) are considered stable.  One
        call serves at most :data:`MAX_BUFFERED_WINDOWS` seconds, so the
        response always fits a frame; after a long poll gap the rest
        follows on the next polls.  A log that has not grown is not read.
        """
        started = process_time()
        try:
            states, offsets = self._states, self._offsets
            for index, log in enumerate(self._logs):
                if len(log.entries) != offsets[index]:
                    records, offsets[index] = log.read_from(offsets[index])
                    for record in records:
                        states.feed_line(record.line)
            first = states.cursor
            rows = states.take(
                min(int(now) - LOG_PARSER_LAG_S, first + MAX_BUFFERED_WINDOWS)
            )
            return SeriesRows(first, rows, -1.0 if states.latest is None else states.latest)
        finally:
            self.meter.cpu_seconds += process_time() - started
            self.meter.calls += 1

    def rpc_stats(self) -> Dict[str, Any]:
        return {
            "lines_parsed": self._states.lines_parsed,
            "lines_skipped": self._states.lines_skipped,
            "cursor": self._states.cursor,
        }


#: Default batch size served per ``poll_many`` call.
DEFAULT_MAX_WINDOWS = 32


class ClusterNodeDaemon:
    """Per-node collection daemon for the live cluster deployment.

    One logical node of ``repro cluster up``: a load source advances the
    node's ``/proc`` counters to *wall-clock* time and the node's sampler
    (``procfs.sampler()``, one fleet pass per tick for the host's nodes)
    differences them, so load -> counters -> sadc rates -> RPC frame runs
    at real speed over real sockets.  ``load`` is duck-typed
    (:class:`repro.cluster.load.FleetNodeLoad`): ``procfs``,
    ``advance_to(wall_s)``, ``inject(kind, intensity)``, ``clear()`` and
    ``active_fault``.  In **pull** mode (``buffered=False``) every
    ``rpc_sample`` samples inline; in **push** mode the host's sampler
    loop calls :meth:`buffer_sample` on its own cadence and polls drain
    the buffer (``rpc_poll_many`` batch-wise, ``rpc_sample`` the newest),
    so the sample rate stays flat as the central fans in.
    """

    #: Interned metric catalog the sample rows are laid out on.
    metric_names = _NODE_CATALOG

    def __init__(self, node: str, load: Any, buffered: bool = False) -> None:
        self.node = node
        self.load = load
        self.buffered = buffered
        self._sampler = load.procfs.sampler()
        # deque append/popleft are atomic; single producer (sampler
        # loop) + single consumer (the node's one poller connection).
        self._windows: "deque[Dict[str, Any]]" = deque(
            maxlen=MAX_BUFFERED_WINDOWS
        )
        self.meter = _CpuMeter()
        self.samples_served = 0
        self.windows_dropped = 0

    def _collect_window(self, ts: float) -> Optional[Dict[str, Any]]:
        self.load.advance_to(ts)
        sample_time = getattr(self.load, "sample_time", None)
        if sample_time is not None:
            # Fleet loads tick in fixed sim quanta: collect against the
            # quantized clock so every window's counter deltas span whole
            # ticks.  A wall interval that held no tick yields elapsed 0
            # and no window -- a zero-delta window would read as 0% idle.
            ts = sample_time()
        row = self._sampler.collect_vector(ts)
        if row is None:
            return None
        return {"timestamp": ts, "node_name": self.node,
                "node": MetricRow(_NODE_CATALOG, row), "emit_wall": time.time()}

    def buffer_sample(self, now: Optional[float] = None) -> bool:
        """One sampler-loop iteration (push mode): collect + enqueue.

        Returns True when a window was buffered (False while priming).
        Called only from the host process's sampler thread.
        """
        ts = float(now) if now is not None else time.time()
        started = process_time()
        try:
            window = self._collect_window(ts)
            if window is None:
                return False
            if len(self._windows) == self._windows.maxlen:
                self.windows_dropped += 1  # fpt: noqa[FPT401] -- single writer: only the sampler loop buffers
            self._windows.append(window)
            return True
        finally:
            self.meter.cpu_seconds += process_time() - started
            self.meter.calls += 1

    def rpc_sample(self, now: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """One collection iteration; ``None`` while priming.

        ``now`` defaults to the daemon's wall clock; ``emit_wall`` stamps
        when the sample left the handler (end-to-end alarm latency
        measures against it).  In push mode: the *newest* buffered window.
        """
        started = process_time()
        try:
            if self.buffered:
                window = None
                while self._windows:  # keep only the newest
                    window = self._windows.popleft()
            else:
                window = self._collect_window(
                    float(now) if now is not None else time.time()
                )
            if window is not None:
                self.samples_served += 1  # fpt: noqa[FPT401] -- single writer: one poller connection serializes rpc_sample
            return window
        finally:
            self.meter.cpu_seconds += process_time() - started
            self.meter.calls += 1

    def rpc_poll_many(
        self, now: Optional[float] = None,
        max_windows: float = DEFAULT_MAX_WINDOWS,
    ) -> Dict[str, Any]:
        """Drain up to ``max_windows`` buffered collection windows, or in
        pull mode take at most one inline sample."""
        started = process_time()
        try:
            limit = max(1, int(max_windows))
            windows: List[Dict[str, Any]] = []
            if self.buffered:
                while self._windows and len(windows) < limit:
                    windows.append(self._windows.popleft())
            else:
                window = self._collect_window(
                    float(now) if now is not None else time.time()
                )
                if window is not None:
                    windows.append(window)
            self.samples_served += len(windows)  # fpt: noqa[FPT401] -- single writer: one poller connection serializes polls
            return {"node_name": self.node, "windows": windows}
        finally:
            self.meter.cpu_seconds += process_time() - started
            self.meter.calls += 1

    def rpc_inject(self, kind: str, intensity: float = 1.0) -> Dict[str, Any]:
        """Start perturbing this node's synthetic load (cpuhog/diskhog)."""
        started = process_time()
        try:
            self.load.inject(kind, float(intensity))
            return {"node": self.node, "fault": kind}
        finally:
            self.meter.cpu_seconds += process_time() - started
            self.meter.calls += 1

    def rpc_clear(self) -> Dict[str, Any]:
        """Stop any active perturbation."""
        started = process_time()
        try:
            self.load.clear()
            return {"node": self.node, "fault": None}
        finally:
            self.meter.cpu_seconds += process_time() - started
            self.meter.calls += 1

    def rpc_info(self) -> Dict[str, Any]:
        """Identity + counters, served to the federator's /cluster view."""
        started = process_time()
        try:
            return {
                "node": self.node,
                "pid": os.getpid(),
                "samples_served": self.samples_served,
                "cpu_seconds": self.meter.cpu_seconds,
                "fault": self.load.active_fault,
                "buffered": self.buffered,
                "windows_pending": len(self._windows),
                "windows_dropped": self.windows_dropped,
            }
        finally:
            self.meter.cpu_seconds += process_time() - started
            self.meter.calls += 1


class StraceDaemon:
    """``strace_rpcd``: per-node syscall tracing (paper section 5's
    "strace module"): per-second syscall category counts, summed across
    the traced processes (the view the anomaly model consumes)."""

    def __init__(self, node: str, procfs, seed: int = 0) -> None:
        from ..sysstat.syscalls import SYSCALL_CATEGORIES, SyscallTracer

        self.node = node
        self._tracer = SyscallTracer(procfs, seed=seed)
        self._categories = list(SYSCALL_CATEGORIES)
        self.meter = _CpuMeter()

    def rpc_categories(self):
        """The syscall categories, in vector order."""
        return list(self._categories)

    def rpc_trace(self, now: float):
        """Node-wide syscall counts since the previous call.

        ``None`` on the priming call, like sadc's first sample.
        """
        started = process_time()
        try:
            total = self._tracer.trace_total(float(now))
            if total is None:
                return None
            return [float(x) for x in total]
        finally:
            self.meter.cpu_seconds += process_time() - started
            self.meter.calls += 1
