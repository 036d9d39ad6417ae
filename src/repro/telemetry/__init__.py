"""Self-instrumentation for the fpt-core: metrics, traces, alarm audit.

ASDF is itself a monitoring framework; this package is how the
reproduction observes *itself* (the paper's Tables 3/4 measure exactly
this).  Public surface:

* :class:`Telemetry` -- the facade a running core owns; bundles a
  metrics registry, a tracer and the alarm audit trail.
* :data:`NULL_TELEMETRY` -- the disabled default (one attribute check
  on the hot path).
* :class:`MetricsRegistry`, :class:`Counter`, :class:`Gauge`,
  :class:`ReadGauge`, :class:`Histogram` -- dependency-free metrics with Prometheus text
  and JSON expositions.
* :class:`Tracer`, :class:`TraceEvent` -- span/event recording with
  JSONL and Chrome ``chrome://tracing`` exports.
* :class:`AlarmAuditTrail`, :class:`AuditRecord` -- the append-only
  record of why each fingerpointing verdict fired.
"""

from .audit import AlarmAuditTrail, AuditRecord
from .facade import NULL_TELEMETRY, RunStats, Telemetry
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ReadGauge,
)
from .tracing import (
    NULL_TRACER,
    TraceEvent,
    Tracer,
    pids_by_trace_id,
    stitch_chrome_traces,
)

__all__ = [
    "AlarmAuditTrail",
    "AuditRecord",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "ReadGauge",
    "RunStats",
    "Telemetry",
    "TraceEvent",
    "Tracer",
    "pids_by_trace_id",
    "stitch_chrome_traces",
]
