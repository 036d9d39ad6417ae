"""Monitoring-overhead measurements: the paper's Tables 3 and 4.

Table 3 reports the CPU and memory cost of the two per-node collection
daemons and of the fpt-core (collection + analysis) on the control node.
Our daemons meter their own CPU consumption (``time.process_time`` around
each RPC handler); because collection runs once per second, CPU-seconds
per iteration *is* the fraction of one core the daemon would occupy in
production.  Memory is the recursively measured size of each component's
live object graph.

Table 4 reports RPC bandwidth per type (sadc, hadoop_log-datanode,
hadoop_log-tasktracker): static connection overhead and per-iteration
bytes, both read straight off the channels' byte counters.

The fpt-core CPU number comes from the :mod:`repro.telemetry` layer: the
scheduler's per-instance run-latency histograms sum to the seconds spent
inside module ``run()`` calls, so Table 3 is a *consumer* of the same
instrumentation an operator would use online, not a bespoke stopwatch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from .model import train_blackbox_model, training_inputs
from .scenario import AsdfHandles, ScenarioConfig, run_scenario
from ..telemetry import Telemetry


def deep_sizeof(obj, _seen: Optional[set] = None) -> int:
    """Recursive ``sys.getsizeof`` over an object graph (approximate RSS).

    Follows containers, ``__dict__`` and ``__slots__``; each object is
    counted once.  numpy arrays report their buffer via ``getsizeof``.
    """
    if _seen is None:
        _seen = set()
    oid = id(obj)
    if oid in _seen:
        return 0
    _seen.add(oid)
    size = sys.getsizeof(obj, 0)
    if isinstance(obj, dict):
        size += sum(
            deep_sizeof(k, _seen) + deep_sizeof(v, _seen) for k, v in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_sizeof(item, _seen) for item in obj)
    if hasattr(obj, "__dict__"):
        size += deep_sizeof(vars(obj), _seen)
    if hasattr(obj, "__slots__"):
        size += sum(
            deep_sizeof(getattr(obj, slot), _seen)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return size


@dataclass
class OverheadRow:
    """One row of Table 3."""

    process: str
    cpu_pct: float       # % of one core
    memory_mb: float     # resident-equivalent of live structures

    def render(self) -> str:
        return f"{self.process:<18} {self.cpu_pct:8.4f} {self.memory_mb:12.2f}"


@dataclass
class BandwidthRow:
    """One row of Table 4."""

    rpc_type: str
    static_overhead_kb: float   # per-node connection setup cost
    per_iteration_kb_s: float   # steady-state bandwidth per node

    def render(self) -> str:
        return (
            f"{self.rpc_type:<12} {self.static_overhead_kb:10.2f} "
            f"{self.per_iteration_kb_s:14.2f}"
        )


@dataclass
class OverheadReport:
    """Everything one monitored run measured (Tables 3 + 4)."""

    duration_s: float
    num_nodes: int
    table3: List[OverheadRow]
    table4: List[BandwidthRow]
    #: The instrumentation the run was measured with; carries the
    #: per-instance run-latency histograms behind the fpt-core row.
    telemetry: Optional[Telemetry] = field(default=None, repr=False)

    def table3_text(self) -> str:
        lines = [f"{'Process':<18} {'% CPU':>8} {'Memory (MB)':>12}"]
        lines += [row.render() for row in self.table3]
        return "\n".join(lines)

    def table4_text(self) -> str:
        lines = [
            f"{'RPC Type':<12} {'Static Ovh. (kB)':>10} {'Per-iter BW (kB/s)':>14}"
        ]
        lines += [row.render() for row in self.table4]
        return "\n".join(lines)


def measure_overheads(
    num_slaves: int = 10,
    duration_s: float = 300.0,
    seed: int = 21,
    training_duration_s: float = 120.0,
    telemetry: Optional[Telemetry] = None,
) -> OverheadReport:
    """Run a monitored fault-free cluster and measure ASDF's costs.

    The run is instrumented with ``telemetry`` (a metrics-only
    :class:`~repro.telemetry.Telemetry` is created when none is given);
    the fpt-core CPU figure is the sum of the per-instance run-latency
    histograms that instrumentation recorded.
    """
    if telemetry is None:
        # Metrics only: tracing a 300s run would record ~100k events
        # whose bookkeeping we would then, absurdly, measure.
        telemetry = Telemetry(trace=False)
    config = ScenarioConfig(
        num_slaves=num_slaves, duration_s=duration_s, seed=seed
    )
    model = train_blackbox_model(**training_inputs(config, training_duration_s))
    handles = run_scenario(
        config, model=model, keep_handles=True, telemetry=telemetry
    ).handles
    core_cpu = telemetry.total_run_seconds()
    report = compute_overhead_report(handles, duration_s, num_slaves, core_cpu)
    report.telemetry = telemetry
    handles.core.close()
    return report


def compute_overhead_report(
    handles: AsdfHandles,
    duration_s: float,
    num_nodes: int,
    core_cpu_seconds: float,
) -> OverheadReport:
    """Derive Table 3 and Table 4 rows from a finished monitored run."""

    def mean(values: Iterable[float]) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    # Table 3.  Daemon CPU%: handler CPU-seconds / wall duration (one
    # collection iteration per second).  hadoop_log covers both daemons
    # on a node, matching the paper's single hadoop_log_rpcd process.
    sadc_cpu_pct = 100.0 * mean(
        d.meter.cpu_seconds / duration_s for d in handles.sadc_daemons.values()
    )
    hl_cpu_pct = 100.0 * mean(
        (handles.hl_tt_daemons[n].meter.cpu_seconds
         + handles.hl_dn_daemons[n].meter.cpu_seconds) / duration_s
        for n in handles.hl_tt_daemons
    )
    sadc_mem_mb = mean(
        deep_sizeof(d) for d in handles.sadc_daemons.values()
    ) / 1e6
    hl_mem_mb = mean(
        deep_sizeof(handles.hl_tt_daemons[n]) + deep_sizeof(handles.hl_dn_daemons[n])
        for n in handles.hl_tt_daemons
    ) / 1e6
    # fpt-core CPU excludes time spent inside the daemons' handlers
    # (that work happens on the monitored nodes in production).
    daemon_cpu_total = sum(
        d.meter.cpu_seconds for d in handles.sadc_daemons.values()
    ) + sum(
        d.meter.cpu_seconds for d in handles.hl_tt_daemons.values()
    ) + sum(
        d.meter.cpu_seconds for d in handles.hl_dn_daemons.values()
    )
    core_pct = 100.0 * max(0.0, core_cpu_seconds - daemon_cpu_total) / duration_s
    core_mem_mb = deep_sizeof(handles.core.dag) / 1e6

    table3 = [
        OverheadRow("hadoop_log_rpcd", hl_cpu_pct, hl_mem_mb),
        OverheadRow("sadc_rpcd", sadc_cpu_pct, sadc_mem_mb),
        OverheadRow("fpt-core", core_pct, core_mem_mb),
    ]

    # Table 4: per-node averages off the channel byte counters.
    def bandwidth_row(name: str, channels) -> BandwidthRow:
        static_kb = mean(c.counter.static_wire for c in channels) / 1024.0
        dynamic_kb_s = mean(
            c.counter.dynamic_wire / duration_s for c in channels
        ) / 1024.0
        return BandwidthRow(name, static_kb, dynamic_kb_s)

    sadc_row = bandwidth_row("sadc-tcp", handles.sadc_channels.values())
    dn_row = bandwidth_row("hl-dn-tcp", handles.hl_dn_channels.values())
    tt_row = bandwidth_row("hl-tt-tcp", handles.hl_tt_channels.values())
    total_row = BandwidthRow(
        "TCP Sum",
        sadc_row.static_overhead_kb
        + dn_row.static_overhead_kb
        + tt_row.static_overhead_kb,
        sadc_row.per_iteration_kb_s
        + dn_row.per_iteration_kb_s
        + tt_row.per_iteration_kb_s,
    )
    table4 = [sadc_row, dn_row, tt_row, total_row]

    return OverheadReport(
        duration_s=duration_s,
        num_nodes=num_nodes,
        table3=table3,
        table4=table4,
    )
