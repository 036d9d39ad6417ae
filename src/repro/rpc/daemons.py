"""The two per-node collection daemons: ``sadc_rpcd`` and ``hadoop_log_rpcd``.

Each monitored slave runs both daemons (paper section 4.3); the ASDF
control node polls them once per second.  ``sadc_rpcd`` wraps the
libsadc sampler over the node's ``/proc``; ``hadoop_log_rpcd`` wraps the
lazy log parser and returns per-second white-box state vectors.

Both daemons keep a running account of the CPU time they consume
(``cpu_seconds``), which is what the Table 3 overhead benchmark reports.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Any, Dict, List, Optional

from ..hadoop.log_parser import StateVectorStream
from ..hadoop.logs import DaemonLog
from ..hadoop.states import WHITEBOX_STATES
from ..sysstat.metrics import NIC_METRICS, NODE_METRICS, PROCESS_METRICS
from .protocol import MetricRow, intern_catalog

#: Seconds the log parser lags behind real time: Hadoop buffers log
#: writes, and some statistics resolve only one or two iterations later
#: (paper section 3.7).
LOG_PARSER_LAG_S = 2

#: Collection windows one daemon buffers (``ClusterNodeDaemon``) or
#: serves in one call (``HadoopLogDaemon``): bounds memory, and the
#: frame, when the central poller falls behind.
MAX_BUFFERED_WINDOWS = 240


class _CpuMeter:
    """Accumulates process CPU time spent inside RPC handlers."""

    def __init__(self) -> None:
        self.cpu_seconds = 0.0
        self.calls = 0

    def __enter__(self) -> "_CpuMeter":
        self._t0 = time.process_time()
        return self

    def __exit__(self, *exc_info) -> None:
        self.cpu_seconds += time.process_time() - self._t0
        self.calls += 1


#: The node-metric catalog both sampling daemons advertise and lay
#: their rows out against.
_NODE_CATALOG = intern_catalog(NODE_METRICS)


def _node_window(node: str, timestamp: float, row) -> Dict[str, Any]:
    """One sample around the sampler's row, as it is: a binary frame ships
    the array, nobody builds the 64-key dict it stands for."""
    return {
        "timestamp": timestamp,
        "node_name": node,
        "node": MetricRow(_NODE_CATALOG, row),
    }


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
        with self.meter:
            now = float(now)
            row = self._sampler.collect_vector(now)
            if row is None:
                return None
            return _node_window(self.node, now, row)


class HadoopLogDaemon:
    """``hadoop_log_rpcd``: lazy log parsing into state-vector series.

    Incrementally tails one Hadoop daemon's log (tasktracker *or*
    datanode -- the paper runs these as separate RPC types, ``hl-tt`` and
    ``hl-dn`` in Table 4), feeds the streaming state counter, and returns
    the per-second state vectors that have become *stable* (older than
    the parser lag).  The counter's cursor ensures each second is
    returned exactly once; nothing is kept of a second once it is served.

    The emitted vector always spans the full 8-state catalog; states the
    daemon's log cannot populate stay zero, so per-node vectors from the
    tasktracker and datanode daemons can simply be summed.
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

    def _feed_new_lines(self) -> None:
        for index, log in enumerate(self._logs):
            if len(log) != self._offsets[index]:  # no line, no tail copy
                records, self._offsets[index] = log.read_from(self._offsets[index])
                for record in records:
                    self._states.feed_line(record.line)

    def rpc_collect(self, now: float) -> Dict[str, Any]:
        """Return state vectors for newly stable seconds, oldest first.

        ``now`` is the collection time at the control node; seconds up to
        ``now - LOG_PARSER_LAG_S`` (exclusive) are considered stable.  One
        call serves at most :data:`MAX_BUFFERED_WINDOWS` seconds, so the
        response always fits a frame; after a long poll gap the rest
        follows on the next polls.
        """
        with self.meter:
            self._feed_new_lines()
            states = self._states
            first = states.cursor
            vectors = states.take(
                min(int(now) - LOG_PARSER_LAG_S, first + MAX_BUFFERED_WINDOWS)
            )
            watermark = states.watermark()
            return {
                "seconds": list(range(first, first + len(vectors))),
                "vectors": vectors,
                "watermark": watermark if watermark is not None else -1.0,
            }

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

    One logical node of the live cluster (``repro cluster up``): a load
    source advances the node's ``/proc`` counters to *wall-clock* time,
    and the node's sampler (``procfs.sampler()``: over a ``FleetLoad``
    view, one fleet pass per tick for all the host's logical nodes)
    differences the counters -- so the whole
    collect path (load -> ``/proc`` counters -> sadc rates -> RPC frame)
    runs at real speed over real sockets.  ``load`` is duck-typed (see
    :class:`repro.cluster.load.FleetNodeLoad`): it must expose
    ``procfs``, ``advance_to(wall_s)``, ``inject(kind, intensity)``,
    ``clear()`` and ``active_fault``.

    Two collection modes:

    * **pull** (``buffered=False``): every ``rpc_sample`` advances the
      load and samples inline, one window per poll.
    * **push** (``buffered=True``): the host process's sampler loop
      calls :meth:`buffer_sample` on its own cadence and polls drain the
      buffered windows (``rpc_poll_many`` batch-wise, ``rpc_sample`` the
      newest) -- sampling cadence decouples from poll cadence, which is
      what keeps per-node sample rate flat as the central fans in
      hundreds of nodes.

    ``metric_names`` is the interned catalog the sample rows are laid out
    on; the RPC server advertises it in its welcome.
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
        window = _node_window(self.node, ts, row)
        window["emit_wall"] = time.time()
        return window

    def buffer_sample(self, now: Optional[float] = None) -> bool:
        """One sampler-loop iteration (push mode): collect + enqueue.

        Returns True when a window was buffered (False while priming).
        Called only from the host process's sampler thread.
        """
        ts = float(now) if now is not None else time.time()
        with self.meter:
            window = self._collect_window(ts)
            if window is None:
                return False
            if len(self._windows) == self._windows.maxlen:
                self.windows_dropped += 1  # fpt: noqa[FPT401] -- single writer: only the sampler loop buffers
            self._windows.append(window)
            return True

    def rpc_sample(self, now: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """One collection iteration; ``None`` while priming.

        ``now`` defaults to the daemon's own wall clock; the central
        poller passes its clock so both ends agree on the nominal
        timestamp.  ``emit_wall`` stamps the instant the sample left the
        handler, which is what end-to-end alarm latency measures against.
        In push mode this serves the *newest* buffered window, so a
        ``sample`` poller also works against a buffered daemon.
        """
        with self.meter:
            if self.buffered:
                window = None
                while self._windows:  # keep only the newest
                    window = self._windows.popleft()
                if window is None:
                    return None
                self.samples_served += 1  # fpt: noqa[FPT401] -- single writer: one poller connection serializes rpc_sample
                return window
            ts = float(now) if now is not None else time.time()
            window = self._collect_window(ts)
            if window is None:
                return None
            self.samples_served += 1  # fpt: noqa[FPT401] -- single writer: one poller connection serializes rpc_sample
            return window

    def rpc_poll_many(
        self, now: Optional[float] = None,
        max_windows: float = DEFAULT_MAX_WINDOWS,
    ) -> Dict[str, Any]:
        """Drain up to ``max_windows`` buffered collection windows.

        The batched poll path: one request/response round-trip carries
        every window accumulated since the previous poll, so poll
        cadence and sampling cadence decouple.  In pull mode (no sampler
        loop) it degrades to at most one inline sample, so the method is
        always safe to call.
        """
        with self.meter:
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

    def rpc_inject(self, kind: str, intensity: float = 1.0) -> Dict[str, Any]:
        """Start perturbing this node's synthetic load (cpuhog/diskhog)."""
        with self.meter:
            self.load.inject(kind, float(intensity))
            return {"node": self.node, "fault": kind}

    def rpc_clear(self) -> Dict[str, Any]:
        """Stop any active perturbation."""
        with self.meter:
            self.load.clear()
            return {"node": self.node, "fault": None}

    def rpc_info(self) -> Dict[str, Any]:
        """Identity + counters, served to the federator's /cluster view."""
        with self.meter:
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


class StraceDaemon:
    """``strace_rpcd``: per-node syscall tracing (paper section 5).

    "We are currently developing new ASDF modules, including a strace
    module that tracks all of the system calls made by a given process."
    The daemon reports per-second syscall category counts, either summed
    across all traced processes (the node-level view the anomaly model
    consumes) or broken out per pid.
    """

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
        with self.meter:
            total = self._tracer.trace_total(float(now))
            if total is None:
                return None
            return [float(x) for x in total]
