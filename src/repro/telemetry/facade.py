"""The :class:`Telemetry` facade owned by a running fpt-core.

One object bundles the three self-instrumentation surfaces --
:class:`~repro.telemetry.metrics.MetricsRegistry`,
:class:`~repro.telemetry.tracing.Tracer` and
:class:`~repro.telemetry.audit.AlarmAuditTrail` -- plus the recording
helpers the scheduler and channels call on their hot paths.  The helpers
cache metric children per instance/output so steady state costs a couple
of dict lookups, and every caller guards with ``telemetry.enabled``
first, so the disabled default (:data:`NULL_TELEMETRY`) costs one
attribute check.

Metric families recorded by the core:

========================================  =========  =============================
family                                    type       labels
========================================  =========  =============================
``fpt_instance_runs_total``               counter    ``instance``, ``reason``
``fpt_instance_run_errors_total``         counter    ``instance``
``fpt_run_latency_seconds``               histogram  ``instance``
``fpt_drain_queue_depth``                 histogram  --
``fpt_periodic_lag_seconds``              histogram  --
``fpt_output_writes_total``               counter    ``output``
``fpt_output_queue_depth``                gauge      ``output`` (high-watermark)
``fpt_output_dropped_total``              gauge      ``output`` (read on scrape)
``fpt_output_skipped_total``              gauge      ``output`` (read on scrape)
``asdf_rpc_wire_bytes_total``             counter    ``service``, ``direction``
``asdf_rpc_messages_total``               counter    ``service``, ``direction``
``asdf_rpc_bytes_sent_total``             gauge      ``role``
``asdf_rpc_bytes_received_total``         gauge      ``role``
``asdf_experiment_task_wall_seconds``     histogram  --
``asdf_experiment_task_cpu_seconds``      histogram  --
``asdf_experiment_tasks_total``           counter    ``worker``
``asdf_alarm_sim_latency_seconds``        histogram  ``fault``, ``stage``
``asdf_alarm_wall_latency_seconds``       histogram  ``fault``, ``stage``
========================================  =========  =============================

The alarm-latency pair is recorded by the diagnosis observatory
(:mod:`repro.obsv`): sample->alarm latency derived from the ``Alarm.via``
provenance chain, per attributed fault and per pipeline stage (with the
reserved stage ``total`` for end-to-end ingest->sink latency), on both
the simulated clock and the wall clock.

"Read on scrape" marks a :class:`~repro.telemetry.metrics.ReadGauge`:
the value is the sum of the output's own connection counters at the
moment of the scrape, nothing is pushed on the write path.

The flight recorder (:mod:`repro.flightrec`) registers its own gauge
families when attached to a telemetry-enabled core, all read on scrape
from the totals the recorder keeps as it records:
``fpt_flightrec_buffered_samples``, ``fpt_flightrec_buffered_bytes``,
``fpt_flightrec_evictions_total``, ``fpt_flightrec_records_total`` and
``fpt_flightrec_incidents_total``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .audit import AlarmAuditTrail
from .metrics import Histogram, MetricsRegistry
from .tracing import Tracer

__all__ = ["Telemetry", "NULL_TELEMETRY", "RunStats"]

#: Drain-queue depths are small integers; buckets cover 1..10k pending runs.
QUEUE_DEPTH_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 1000.0, 10000.0)

#: Periodic lag: 0 under a simulated clock, scheduler jitter under a wall
#: clock.  Sub-millisecond buckets catch the interesting range.
LAG_BUCKETS_S = (1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Experiment-runner tasks run whole scenarios: sub-second smoke configs
#: up through multi-minute evaluation runs.
TASK_SECONDS_BUCKETS = (0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0)

#: Sample->alarm latency on the *simulated* clock: dominated by window
#: widths and consecutive-window requirements, so seconds to minutes.
ALARM_SIM_LATENCY_BUCKETS_S = (
    1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 180.0, 300.0, 600.0, 1200.0,
)


class RunStats:
    """Per-instance run summary derived from the metrics (for ``to_dot``)."""

    __slots__ = ("runs", "mean_latency_s", "errors")

    def __init__(self, runs: int, mean_latency_s: float, errors: int) -> None:
        self.runs = runs
        self.mean_latency_s = mean_latency_s
        self.errors = errors


class Telemetry:
    """Everything a core records about itself."""

    def __init__(self, enabled: bool = True, trace: bool = True) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=enabled and trace)
        self.audit = AlarmAuditTrail()
        # Hot-path caches: instance/output name -> live metric children.
        self._run_cache: Dict[Tuple[str, str], object] = {}
        self._latency_cache: Dict[str, Histogram] = {}
        self._output_cache: Dict[str, tuple] = {}
        self._rpc_cache: Dict[str, tuple] = {}
        self._endpoint_cache: Dict[str, tuple] = {}
        self._drain_hist: Optional[Histogram] = None
        self._lag_hist: Optional[Histogram] = None
        self._task_metrics: Optional[tuple] = None
        self._task_worker_cache: Dict[str, object] = {}
        self._alarm_latency_cache: Dict[Tuple[str, str], tuple] = {}

    # -- scheduler hooks -----------------------------------------------------

    def record_run(self, instance_id: str, reason: str, started_perf_s: float,
                   duration_s: float, sim_time_s: float,
                   error: Optional[str] = None) -> None:
        """Account one module ``run()``: counters, latency, trace event."""
        key = (instance_id, reason)
        counter = self._run_cache.get(key)
        if counter is None:
            counter = self.metrics.counter(
                "fpt_instance_runs_total",
                "Module run() invocations by scheduling reason.",
                {"instance": instance_id, "reason": reason},
            )
            self._run_cache[key] = counter
        counter.inc()
        latency = self._latency_cache.get(instance_id)
        if latency is None:
            latency = self.metrics.histogram(
                "fpt_run_latency_seconds",
                "Wall-clock latency of module run() calls.",
                {"instance": instance_id},
            )
            self._latency_cache[instance_id] = latency
        latency.observe(duration_s)
        if error is not None:
            self.metrics.counter(
                "fpt_instance_run_errors_total",
                "Module run() calls that raised.",
                {"instance": instance_id},
            ).inc()
        if self.tracer.enabled:
            args = {"sim_time_s": sim_time_s}
            if error is not None:
                args["error"] = error
            self.tracer.complete(
                "run", reason, started_perf_s, duration_s,
                track=instance_id, **args,
            )

    def record_drain_depth(self, depth: int) -> None:
        hist = self._drain_hist
        if hist is None:
            hist = self.metrics.histogram(
                "fpt_drain_queue_depth",
                "Pending input-triggered runs at each drain pass.",
                buckets=QUEUE_DEPTH_BUCKETS,
            )
            self._drain_hist = hist
        hist.observe(depth)

    def record_periodic_lag(self, lag_s: float) -> None:
        hist = self._lag_hist
        if hist is None:
            hist = self.metrics.histogram(
                "fpt_periodic_lag_seconds",
                "How late each periodic deadline actually fired.",
                buckets=LAG_BUCKETS_S,
            )
            self._lag_hist = hist
        hist.observe(max(0.0, lag_s))

    # -- channel hooks -------------------------------------------------------

    def record_write(self, output, sample=None) -> None:
        """Account one ``Output.write``: write count + queue high-watermark
        (an ``on_write`` observer, installed when telemetry is enabled)."""
        cached = self._output_cache.get(output.full_name)
        if cached is None or cached[0] is not output:
            # First write, or a new output under a known name (a second
            # core sharing this telemetry): bind the series to it.
            cached = self._output_metrics(output)
        _, writes, depth = cached
        writes.inc()
        subscribers = output.subscribers
        if subscribers:
            depth.set_max(
                len(subscribers[0]) if len(subscribers) == 1
                else max(len(c) for c in subscribers)
            )

    def _output_metrics(self, output) -> tuple:
        """Bind one output's series; returns it with the two pushed on writes.

        Drops and skips are counters the output's connections keep
        anyway, so they are published as read-on-scrape gauges over the
        ``subscribers`` list instead of being re-summed on every write.
        """
        labels = {"output": output.full_name}
        subscribers = output.subscribers
        self.metrics.read_gauge(
            "fpt_output_dropped_total",
            "Samples dropped from full subscriber queues per output.",
            lambda: sum(c.total_dropped for c in subscribers), labels,
        )
        self.metrics.read_gauge(
            "fpt_output_skipped_total",
            "Buffered samples discarded unread by latest()-style "
            "consumers per output.",
            lambda: sum(c.total_skipped for c in subscribers), labels,
        )
        cached = self._output_cache[output.full_name] = (
            output,
            self.metrics.counter(
                "fpt_output_writes_total",
                "Samples written per output port.", labels,
            ),
            self.metrics.gauge(
                "fpt_output_queue_depth",
                "High-watermark of subscriber queue depth per output.",
                labels,
            ),
        )
        return cached

    # -- experiment-runner hooks ---------------------------------------------

    def record_task(
        self, task_id: str, wall_s: float, cpu_s: float, worker: str = ""
    ) -> None:
        """Account one experiment-runner task: wall + CPU seconds per run.

        ``worker`` labels the per-worker task counter (bounded by the
        pool size), so a skewed process pool shows up as a skewed
        ``asdf_experiment_tasks_total`` distribution.
        """
        metrics = self._task_metrics
        if metrics is None:
            metrics = (
                self.metrics.histogram(
                    "asdf_experiment_task_wall_seconds",
                    "Wall seconds per experiment-runner task.",
                    buckets=TASK_SECONDS_BUCKETS,
                ),
                self.metrics.histogram(
                    "asdf_experiment_task_cpu_seconds",
                    "CPU seconds per experiment-runner task.",
                    buckets=TASK_SECONDS_BUCKETS,
                ),
            )
            self._task_metrics = metrics
        wall_hist, cpu_hist = metrics
        wall_hist.observe(wall_s)
        cpu_hist.observe(cpu_s)
        counter = self._task_worker_cache.get(worker)
        if counter is None:
            counter = self.metrics.counter(
                "asdf_experiment_tasks_total",
                "Experiment-runner tasks executed, by worker.",
                {"worker": worker or "in-process"},
            )
            self._task_worker_cache[worker] = counter
        counter.inc()

    # -- observatory hooks ---------------------------------------------------

    def record_alarm_latency(
        self,
        fault: str,
        stage: str,
        sim_s: Optional[float],
        wall_s: Optional[float],
    ) -> None:
        """Account one sample->alarm latency observation.

        ``stage`` is one output on the alarm's via chain, or the
        reserved label ``total`` for end-to-end ingest->sink latency.
        Called by :class:`repro.obsv.Observatory` only for measured
        records, so ``None`` components are simply skipped.
        """
        key = (fault, stage)
        cached = self._alarm_latency_cache.get(key)
        if cached is None:
            labels = {"fault": fault, "stage": stage}
            cached = (
                self.metrics.histogram(
                    "asdf_alarm_sim_latency_seconds",
                    "Sample->alarm latency on the simulated clock, from "
                    "the Alarm.via provenance walk.",
                    labels,
                    buckets=ALARM_SIM_LATENCY_BUCKETS_S,
                ),
                self.metrics.histogram(
                    "asdf_alarm_wall_latency_seconds",
                    "Sample->alarm latency on the wall clock (real "
                    "processing time), from the Alarm.via provenance walk.",
                    labels,
                ),
            )
            self._alarm_latency_cache[key] = cached
        sim_hist, wall_hist = cached
        if sim_s is not None:
            sim_hist.observe(sim_s)
        if wall_s is not None:
            wall_hist.observe(wall_s)

    # -- rpc hooks -----------------------------------------------------------

    def record_rpc(self, service: str, tx_wire: int, rx_wire: int) -> None:
        """Account one RPC round-trip's wire bytes (feeds Table 4)."""
        cached = self._rpc_cache.get(service)
        if cached is None:
            cached = (
                self.metrics.counter(
                    "asdf_rpc_wire_bytes_total",
                    "Estimated wire bytes per RPC service.",
                    {"service": service, "direction": "tx"},
                ),
                self.metrics.counter(
                    "asdf_rpc_wire_bytes_total",
                    "Estimated wire bytes per RPC service.",
                    {"service": service, "direction": "rx"},
                ),
                self.metrics.counter(
                    "asdf_rpc_messages_total",
                    "RPC messages per service.",
                    {"service": service, "direction": "tx"},
                ),
            )
            self._rpc_cache[service] = cached
        tx, rx, messages = cached
        tx.inc(tx_wire)
        rx.inc(rx_wire)
        messages.inc()

    def record_rpc_endpoint(self, role: str, counter) -> None:
        """Publish one endpoint's :class:`ByteCounter` running totals.

        ``role`` names the connection endpoint (e.g. ``client:node-03``
        or ``server:central``); the gauges track the counter's
        application-payload totals so ``/metrics`` shows live rpc bytes
        in/out per connection, not just per-call wire estimates.
        """
        cached = self._endpoint_cache.get(role)
        if cached is None:
            labels = {"role": role}
            cached = (
                self.metrics.gauge(
                    "asdf_rpc_bytes_sent_total",
                    "Application payload bytes sent per connection role.",
                    labels,
                ),
                self.metrics.gauge(
                    "asdf_rpc_bytes_received_total",
                    "Application payload bytes received per connection role.",
                    labels,
                ),
            )
            self._endpoint_cache[role] = cached
        sent, received = cached
        sent.set(float(counter.tx_payload))
        received.set(float(counter.rx_payload))

    # -- derived views -------------------------------------------------------

    def total_run_seconds(self) -> float:
        """Total wall-clock seconds spent inside module run() calls."""
        return sum(h.sum for h in self._latency_cache.values())

    def run_stats(self) -> Dict[str, RunStats]:
        """Per-instance run count / mean latency / errors."""
        stats: Dict[str, RunStats] = {}
        for labels, hist in self.metrics.iter_children("fpt_run_latency_seconds"):
            instance = dict(labels).get("instance", "")
            stats[instance] = RunStats(hist.count, hist.mean, 0)
        for labels, counter in self.metrics.iter_children(
            "fpt_instance_run_errors_total"
        ):
            instance = dict(labels).get("instance", "")
            if instance in stats:
                stats[instance].errors = int(counter.value)
        return stats

    def summary_text(self, top: int = 15) -> str:
        """Human-readable digest: hottest instances, queues, RPC, alarms."""
        lines = ["telemetry summary", "================="]
        stats = self.run_stats()
        if stats:
            lines.append("")
            lines.append(f"{'instance':<24} {'runs':>8} {'mean ms':>9} "
                         f"{'total s':>9} {'errors':>7}")
            hottest = sorted(
                stats.items(),
                key=lambda kv: kv[1].runs * kv[1].mean_latency_s,
                reverse=True,
            )
            for instance, s in hottest[:top]:
                lines.append(
                    f"{instance:<24} {s.runs:>8} {s.mean_latency_s * 1e3:>9.3f} "
                    f"{s.runs * s.mean_latency_s:>9.3f} {s.errors:>7}"
                )
            if len(hottest) > top:
                lines.append(f"... and {len(hottest) - top} more instances")
            lines.append("")
            lines.append(
                f"total run() time: {self.total_run_seconds():.3f}s across "
                f"{sum(s.runs for s in stats.values())} runs of "
                f"{len(stats)} instances"
            )
        writes = self.metrics.total("fpt_output_writes_total")
        if writes:
            lines.append(f"output writes: {int(writes)}")
        rpc_bytes = self.metrics.total("asdf_rpc_wire_bytes_total")
        if rpc_bytes:
            lines.append(f"rpc wire bytes: {int(rpc_bytes)}")
        if self.tracer.events or self.tracer.dropped:
            lines.append(
                f"trace events: {len(self.tracer.events)} "
                f"(+{self.tracer.dropped} dropped)"
            )
        if len(self.audit):
            lines.append(
                f"alarm audit trail: {len(self.audit)} records, "
                f"culprits: {', '.join(self.audit.culprits())}"
            )
        return "\n".join(lines)


#: The disabled default every core starts with; recording helpers must
#: never be called on it (callers guard on ``enabled``), and its tracer
#: hands out the shared no-op span.
NULL_TELEMETRY = Telemetry(enabled=False, trace=False)
