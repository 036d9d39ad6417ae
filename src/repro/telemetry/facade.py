"""The :class:`Telemetry` facade owned by a running fpt-core.

One object bundles the two self-instrumentation surfaces --
:class:`~repro.telemetry.metrics.MetricsRegistry` and
:class:`~repro.telemetry.tracing.Tracer` -- and binds them to the
pipeline.  The rule: **telemetry reads, it does not re-count.**  A count
the pipeline keeps anyway is published as a child *read* from its owner
when somebody scrapes (``watch_output``, ``watch_rpc``, ``run_probe``);
only what nobody else keeps -- a latency, a lag, a high-watermark -- is
*pushed* on the hot path.  The disabled default (:data:`NULL_TELEMETRY`)
binds nothing, so it costs the scheduler one ``None`` check per run.

Metric families of the core (``read``: from which book, on scrape):

========================================  =========  ==================  ==============================
family                                    type       labels              pushed / read
========================================  =========  ==================  ==============================
``fpt_instance_runs_total``               counter    instance, reason    read: ``RunProbe.runs``
``fpt_instance_run_errors_total``         counter    instance            pushed (a run that raised)
``fpt_run_latency_seconds``               histogram  instance            pushed per run
``fpt_drain_queue_depth``                 histogram  --                  pushed per drain pass
``fpt_periodic_lag_seconds``              histogram  --                  pushed per periodic event
``fpt_output_writes_total``               counter    output              read: ``Output.total_written``
``fpt_output_queue_depth``                gauge      output              pushed when the high-watermark rises
``fpt_output_dropped_total``              gauge      output              read: ``Connection.total_dropped``
``fpt_output_skipped_total``              gauge      output              read: ``Connection.total_skipped``
``asdf_rpc_wire_bytes_total``             counter    service, direction  read: ``ByteCounter.tx_wire/rx_wire``
``asdf_rpc_messages_total``               counter    service, direction  read: ``ByteCounter.messages_sent``
``asdf_rpc_bytes_sent_total``             gauge      role                read: ``ByteCounter.tx_payload``
``asdf_rpc_bytes_received_total``         gauge      role                read: ``ByteCounter.rx_payload``
``asdf_experiment_task_wall_seconds``     histogram  --                  pushed per task
``asdf_experiment_task_cpu_seconds``      histogram  --                  pushed per task
``asdf_experiment_tasks_total``           counter    worker              pushed per task
``asdf_alarm_sim_latency_seconds``        histogram  fault, stage        pushed per alarm
``asdf_alarm_wall_latency_seconds``       histogram  fault, stage        pushed per alarm
========================================  =========  ==================  ==============================

A read series exists from the moment its owner is bound (an output
nobody has written to yet exports 0), shows the owner's value at the
scrape, and follows the latest owner bound under its labels.  The
``asdf_rpc_*`` service series sum every endpoint watched under that
service name, so a client and a server sharing one add up.

The alarm-latency pair comes from the diagnosis observatory
(:mod:`repro.obsv`): the ``Alarm.via`` walk of every alarm a ``print``
sink delivered, per stage (``total`` = ingest->sink), on the simulated
and the wall clock.  ``fault`` is the run's fault when the alarm names
the culprit at or after injection, and ``fault-free`` otherwise.
The flight recorder (:mod:`repro.flightrec`) registers five
``fpt_flightrec_*`` gauges of its own, all read on scrape.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from .metrics import Gauge, Histogram, MetricsRegistry
from .tracing import Tracer

__all__ = ["Telemetry", "NULL_TELEMETRY", "RunStats", "RunProbe"]

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


class RunProbe:
    """One instance's ``run()`` accounting, called once per run.

    The scheduler binds it onto the instance's trigger cell and calls it
    positionally; everything it needs is held here.  ``runs`` is the
    book ``fpt_instance_runs_total`` reads (one series per reason the
    instance has run for, bound at the first such run).
    """

    __slots__ = ("instance_id", "runs", "_metrics", "_observe", "_tracer")

    def __init__(self, telemetry: "Telemetry", instance_id: str) -> None:
        self.instance_id = instance_id
        #: reason label -> ``run()`` calls made for that reason.
        self.runs: Dict[str, int] = {}
        self._metrics = telemetry.metrics
        self._observe = telemetry.metrics.histogram(
            "fpt_run_latency_seconds",
            "Wall-clock latency of module run() calls.",
            {"instance": instance_id},
        ).observe
        self._tracer = telemetry.tracer

    def __call__(self, reason: str, started_perf_s: float, duration_s: float,
                 sim_time_s: float, error: Optional[str]) -> None:
        """Account one ``run()``: count, latency, trace event."""
        runs = self.runs
        try:
            runs[reason] += 1
        except KeyError:
            runs[reason] = 1
            self._metrics.read_counter(
                "fpt_instance_runs_total",
                "Module run() invocations by scheduling reason.",
                partial(runs.__getitem__, reason),
                {"instance": self.instance_id, "reason": reason},
            )
        self._observe(duration_s)
        if error is not None:
            self._metrics.counter(
                "fpt_instance_run_errors_total",
                "Module run() calls that raised.",
                {"instance": self.instance_id},
            ).inc()
        tracer = self._tracer
        if tracer.enabled:
            tracer.record(
                "run", reason, started_perf_s, duration_s, self.instance_id,
                sim_time_s, None if error is None else {"error": error},
            )


def _raise_watermark(depth: Gauge, subscribers: list, output, sample) -> None:
    """The one per-write push: the deepest subscriber queue so far."""
    if subscribers:
        deepest = (
            len(subscribers[0]) if len(subscribers) == 1
            else max(map(len, subscribers))
        )
        if deepest > depth.value:  # unlocked peek; set_max decides
            depth.set_max(deepest)


def _total(books: list, field: str) -> int:
    """One count summed over its keepers (connections, byte counters)."""
    return sum(getattr(book, field) for book in books)


class Telemetry:
    """Everything a core records about itself."""

    def __init__(self, enabled: bool = True, trace: bool = True) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=enabled and trace)
        #: instance id -> its probe (a re-added id continues its counts).
        self._probes: Dict[str, RunProbe] = {}
        #: service name -> the ByteCounters watched under it.
        self._rpc_counters: Dict[str, list] = {}

    # -- scheduler bindings ----------------------------------------------------

    def run_probe(self, instance_id: str) -> RunProbe:
        """The probe the scheduler calls after every run of an instance."""
        probe = self._probes.get(instance_id)
        if probe is None:
            probe = self._probes[instance_id] = RunProbe(self, instance_id)
        return probe

    def drain_depth_histogram(self) -> Histogram:
        return self.metrics.histogram(
            "fpt_drain_queue_depth",
            "Pending input-triggered runs at each drain pass.",
            buckets=QUEUE_DEPTH_BUCKETS,
        )

    def periodic_lag_histogram(self) -> Histogram:
        return self.metrics.histogram(
            "fpt_periodic_lag_seconds",
            "How late each periodic deadline actually fired.",
            buckets=LAG_BUCKETS_S,
        )

    # -- channel binding -------------------------------------------------------

    def watch_output(self, output) -> Callable:
        """Publish one output's books; returns the tap for its writes.

        Writes, drops and skips are kept by the output and its
        connections: read on scrape.  The tap (an ``on_write`` observer)
        pushes what nobody keeps, the queue-depth high-watermark.
        """
        labels = {"output": output.full_name}
        subscribers = output.subscribers
        self.metrics.read_counter(
            "fpt_output_writes_total", "Samples written per output port.",
            lambda: output.total_written, labels,
        )
        self.metrics.read_gauge(
            "fpt_output_dropped_total",
            "Samples dropped from full subscriber queues per output.",
            partial(_total, subscribers, "total_dropped"), labels,
        )
        self.metrics.read_gauge(
            "fpt_output_skipped_total",
            "Buffered samples discarded unread by latest()-style "
            "consumers per output.",
            partial(_total, subscribers, "total_skipped"), labels,
        )
        depth = self.metrics.gauge(
            "fpt_output_queue_depth",
            "High-watermark of subscriber queue depth per output.", labels,
        )
        return partial(_raise_watermark, depth, subscribers)

    # -- experiment-runner and observatory hooks (per task, per alarm) ---------

    def record_task(
        self, task_id: str, wall_s: float, cpu_s: float, worker: str = ""
    ) -> None:
        """Account one experiment-runner task: wall + CPU seconds per run.

        ``worker`` labels the per-worker task counter (bounded by the
        pool size), so a skewed process pool shows up as a skewed
        ``asdf_experiment_tasks_total`` distribution.
        """
        self.metrics.histogram(
            "asdf_experiment_task_wall_seconds",
            "Wall seconds per experiment-runner task.",
            buckets=TASK_SECONDS_BUCKETS,
        ).observe(wall_s)
        self.metrics.histogram(
            "asdf_experiment_task_cpu_seconds",
            "CPU seconds per experiment-runner task.",
            buckets=TASK_SECONDS_BUCKETS,
        ).observe(cpu_s)
        self.metrics.counter(
            "asdf_experiment_tasks_total",
            "Experiment-runner tasks executed, by worker.",
            {"worker": worker or "in-process"},
        ).inc()

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
        labels = {"fault": fault, "stage": stage}
        if sim_s is not None:
            self.metrics.histogram(
                "asdf_alarm_sim_latency_seconds",
                "Sample->alarm latency on the simulated clock, from "
                "the Alarm.via provenance walk.",
                labels, buckets=ALARM_SIM_LATENCY_BUCKETS_S,
            ).observe(sim_s)
        if wall_s is not None:
            self.metrics.histogram(
                "asdf_alarm_wall_latency_seconds",
                "Sample->alarm latency on the wall clock (real "
                "processing time), from the Alarm.via provenance walk.",
                labels,
            ).observe(wall_s)

    # -- rpc binding -----------------------------------------------------------

    def watch_rpc(self, service: str, role: str, counter) -> None:
        """Publish one connection endpoint's :class:`ByteCounter`.

        Called once per endpoint; nothing is recorded per call.  The
        ``service`` series (wire bytes both ways, messages sent: Table
        4's source) sum every counter watched under that name; ``role``
        (``client:`` / ``server:`` / ``inproc:<service>``) names the
        endpoint whose payload totals the ``asdf_rpc_bytes_*`` pair reads.
        """
        counters = self._rpc_counters.get(service)
        if counters is None:
            counters = self._rpc_counters[service] = []
            for family, help_text, direction, field in (
                ("asdf_rpc_wire_bytes_total",
                 "Estimated wire bytes per RPC service.", "tx", "tx_wire"),
                ("asdf_rpc_wire_bytes_total",
                 "Estimated wire bytes per RPC service.", "rx", "rx_wire"),
                ("asdf_rpc_messages_total",
                 "RPC messages per service.", "tx", "messages_sent"),
            ):
                self.metrics.read_counter(
                    family, help_text, partial(_total, counters, field),
                    {"service": service, "direction": direction},
                )
        counters.append(counter)
        self.metrics.read_gauge(
            "asdf_rpc_bytes_sent_total",
            "Application payload bytes sent per connection role.",
            lambda: counter.tx_payload, {"role": role},
        )
        self.metrics.read_gauge(
            "asdf_rpc_bytes_received_total",
            "Application payload bytes received per connection role.",
            lambda: counter.rx_payload, {"role": role},
        )

    # -- derived views -------------------------------------------------------

    def total_run_seconds(self) -> float:
        """Total wall-clock seconds spent inside module run() calls."""
        return self.metrics.total("fpt_run_latency_seconds")

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
        return "\n".join(lines)


#: The disabled default every core starts with; nothing is ever bound to
#: it (binders guard on ``enabled``), and its tracer hands out the shared
#: no-op span.
NULL_TELEMETRY = Telemetry(enabled=False, trace=False)
