"""Static DAG cost model for fpt-core configurations (FPT301/303).

:func:`estimate_config` folds a parsed configuration's DAG into a
predicted per-tick CPU cost **without running a single module**.
:data:`COST_FACTS` gives each module type a :class:`CostFact` -- a set
of calibrated work terms charged per trigger, per sample element, or per
completed window round.  The model propagates data rates through the DAG
along each module class's declared trigger (periodic sources at
``1/interval``; ``fixed(u)`` triggers at ``in_rate/u``; per-connection
triggers at the slowest connection; ibuffers batching ``size`` elements
every ``slide`` updates), resolves each term's scale symbols
(``window``, ``k``, ``dim``, ``n_inputs``, ...) from the instance
parameters and their declared defaults, and sums microseconds per
simulated second.

The ``sadc``, ``hadoop_log``, ``analysis_bb`` and ``analysis_wb``
coefficients are read from ``bench/``'s traced stage table
(``bench/run.py --trace 1``; each fact's note names the workload).  The
tests hold the two analyses' estimates within a quarter of those rows
and the N=1000 total within 3x of the committed ``BENCH_scale.json``
pipeline rate; the other terms are order-of-magnitude estimates.

Diagnostics:

* **FPT301** (error) -- the summed estimate exceeds the tick budget:
  the deployment cannot keep up with real time.
* **FPT303** (warning) -- a window_recompute module slides by less than
  its window, so the overlap is re-scanned from scratch every round.

Fleet size ``N`` is the number of distinct nodes the collectors name
(``nodes`` lists, a ``node`` param); the tick budget is
:data:`DEFAULT_TICK_BUDGET_MS` unless the caller passes ``budget_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..core.config import ConfigError, InstanceSpec, parse_config
from ..core.declaration import param_value
from ..core.module import Module
from ..core.registry import ModuleRegistry
from ..sysstat.metrics import NODE_METRICS
from .diagnostics import Diagnostic, apply_noqa, default_registry, sort_diagnostics

#: Default tick budget: one simulated second of analysis must fit in one
#: wall-clock second, or the online pipeline falls behind its sources.
DEFAULT_TICK_BUDGET_MS = 1000.0

#: Metric-vector dimensionality assumed when an instance does not pin
#: its own ``metrics`` list (the full sadc catalog).
DEFAULT_DIM = len(NODE_METRICS)

#: Units a cost term can be charged per.
COST_UNITS = ("trigger", "sample", "window")

#: Symbols a cost term may scale with.  Resolved per instance:
#: ``window``/``slide``/``k``/``num_states``/``size`` from the instance's
#: parameters, ``n_inputs`` from its wired connections, ``nodes`` from a
#: ``nodes`` list parameter (sadc, hadoop_log), ``dim`` from the metric-vector
#: dimension (the sadc catalog size by default).
COST_SYMBOLS = (
    "window", "slide", "k", "num_states", "size", "n_inputs", "nodes", "dim",
)


@dataclass(frozen=True)
class CostTerm:
    """One work term of a module type's cost fact.

    ``us`` is the estimated CPU microseconds charged once per ``per``
    unit, multiplied by every symbol in ``scales``.  A term whose note
    names a ``bench/`` workload was read from that workload's traced
    stage table; the others are order-of-magnitude estimates.

    * ``per="trigger"`` -- charged every time the instance fires;
    * ``per="sample"``  -- charged per incoming sample *element*
      (ibuffer batches are unpacked to their element rate);
    * ``per="window"``  -- charged per completed window round
      (element rate / slide).
    """

    us: float
    per: str = "trigger"
    scales: Tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        if self.per not in COST_UNITS:
            raise ValueError(
                f"cost term: bad unit {self.per!r} (choose from {COST_UNITS})"
            )
        for symbol in self.scales:
            if symbol not in COST_SYMBOLS:
                raise ValueError(
                    f"cost term: unknown scale symbol {symbol!r} "
                    f"(choose from {COST_SYMBOLS})"
                )


@dataclass(frozen=True)
class CostFact:
    """The cost of one module type (FPT3xx inputs).

    * ``terms`` -- the work terms summed into the per-tick estimate;
    * ``batch_param`` -- int parameter naming the output batch factor
      (ibuffer ``size``): outputs carry ``batch_param`` elements each
      and emit at ``1/batch_param`` of the input update rate;
    * ``window_recompute`` -- each completed window is recomputed from
      scratch (no incremental update); with ``slide < window`` the
      overlap is re-scanned every round, which FPT303 flags.
    """

    terms: Tuple[CostTerm, ...] = ()
    batch_param: Optional[str] = None
    window_recompute: bool = False


#: Module type -> its cost; a type not listed is free as far as the
#: budget estimate is concerned.
COST_FACTS: Dict[str, CostFact] = {
    "sadc": CostFact(
        terms=(
            # bench/ stage table, fleet50 traced passes of seeds 1-3 at
            # 200 us/cu: modules.sadc + rpc.inproc_sadc + sysstat.collect
            # read 18.8 / 19.2 / 18.8 us (median 18.8) with tracing's
            # 15-22 % on top, so 15-16 untraced (30 before the calls ran
            # on plans, 53-55 before the row crossed as one array); no
            # per-metric term.
            CostTerm(
                16.0, "trigger", ("nodes",),
                "per-node row + round trip: stage table, 200 us/cu",
            ),
        ),
    ),
    "hadoop_log": CostFact(
        terms=(
            # Same passes: modules.hadoop_log + rpc.inproc_hl +
            # hadoop.log_parse read 30.7 / 31.8 / 30.8 us (median 30.8),
            # so 25-27 untraced (two daemons polled per node; 45 before
            # the calls ran on plans, 87 before they streamed their
            # counts over codec v2).
            CostTerm(
                27.0, "trigger", ("nodes",),
                "per-node tt+dn collect: stage table, 200 us/cu",
            ),
        ),
    ),
    "strace": CostFact(
        terms=(CostTerm(25.0, "trigger", note="syscall count scrape"),),
    ),
    "knn": CostFact(
        terms=(
            CostTerm(
                100.0, "sample",
                note="small-array numpy call overhead per sample",
            ),
            CostTerm(0.2, "sample", ("dim",), "distance arithmetic"),
        ),
    ),
    "knnfleet": CostFact(
        terms=(
            CostTerm(1.5, "sample", note="amortized batched classify"),
            CostTerm(0.02, "sample", ("dim",), "matrix arithmetic"),
            # fleet50 stage table, PR 20 (seed 3, three traced runs):
            # 4.46 us/sample at 200 us/cu less the terms above; was 3.0.
            CostTerm(1.7, "trigger", ("n_inputs",), "backlog gather"),
        ),
    ),
    "ibuffer": CostFact(
        # Same runs: 1.7 us emitting every sample (replay25_sliding),
        # 0.95 in batches of 5 (fleet50); the dearer one.  Was 4.0.
        # Per sample, so it scales with the wired connections.
        terms=(CostTerm(1.7, "sample", note="buffer append + emit"),),
        batch_param="size",
    ),
    "mavgvec": CostFact(
        terms=(
            CostTerm(5.0, "trigger", note="ring-buffer append"),
            CostTerm(10.0, "window", note="mean/var reduction setup"),
            CostTerm(0.02, "window", ("window", "dim"), "full-window rescan"),
        ),
        window_recompute=True,
    ),
    "threshold_alarm": CostFact(
        terms=(CostTerm(6.0, "sample", note="bound compare + streak"),),
    ),
    "syscall_anomaly": CostFact(
        terms=(
            CostTerm(4.0, "sample", note="count accumulation"),
            CostTerm(
                0.5, "window", ("window",),
                "histogram divergence over the window",
            ),
            CostTerm(30.0, "window", note="baseline comparison"),
        ),
        window_recompute=True,
    ),
    # bench/ stage table, PR 18 traced passes (seed 3) at 200 us/cu,
    # tracing's ~10 % off.  fleet50 (50 peers, a round a minute) is all
    # appends: analysis_bb 1.36 / _wb 1.89 us/sample at 310 us/cu = 0.9 /
    # 1.2.  replay25_sliding (25 peers, a round a second, 75 "samples" a
    # tick) at 262 us/cu: bb 2.89 us x 75 = 149 us a tick, 115 the round;
    # wb 3.02 x 75 = 156, 125 the round; one round timed at 25 and 100
    # peers splits both about half fixed, half per-peer.  PR 20 (cheaper
    # writes) reads 43 / 61 and 128 / 137 us a tick: the terms stay.
    "analysis_bb": CostFact(
        terms=(
            CostTerm(0.9, "sample", note="ring write: fleet50 stage table"),
            CostTerm(60.0, "window", note="round, fixed: replay25_sliding"),
            CostTerm(2.2, "window", ("n_inputs",), "round, per peer: same"),
        ),
        window_recompute=True,
    ),
    "analysis_wb": CostFact(
        terms=(
            CostTerm(1.2, "sample", note="ring write: fleet50 stage table"),
            CostTerm(60.0, "window", note="round, fixed: replay25_sliding"),
            CostTerm(2.6, "window", ("n_inputs",), "round, per peer: same"),
        ),
        window_recompute=True,
    ),
    "alarm_union": CostFact(
        terms=(
            CostTerm(3.0, "trigger", note="merge dispatch"),
            CostTerm(0.5, "trigger", ("n_inputs",), "per-source scan"),
        ),
    ),
    "print": CostFact(terms=(CostTerm(1.0, "sample", note="format + swallow"),)),
    "csv_writer": CostFact(
        terms=(CostTerm(4.0, "sample", note="row format + write"),),
    ),
    "mitigate": CostFact(
        terms=(CostTerm(3.0, "sample", note="alarm triage + action"),),
    ),
}



@dataclass
class InstanceCost:
    """Computed rates and cost for one config instance."""

    instance_id: str
    module_type: str
    trigger_hz: float = 0.0
    #: Estimated CPU microseconds per simulated second.
    us_per_s: float = 0.0


@dataclass
class CostReport:
    """The full cost estimate for one configuration."""

    file: str = "<config>"
    fleet_size: int = 0
    budget_ms: float = DEFAULT_TICK_BUDGET_MS
    instances: List[InstanceCost] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def total_us_per_s(self) -> float:
        return sum(cost.us_per_s for cost in self.instances)

    @property
    def total_ms_per_s(self) -> float:
        """Estimated analysis CPU (ms) per simulated second -- the
        number compared against ``budget_ms``."""
        return self.total_us_per_s / 1000.0

    def by_type(self) -> List[Tuple[str, float, float, float]]:
        """Aggregate rows ``(type, instances, trigger_hz, ms_per_s)``,
        most expensive type first."""
        rows: Dict[str, List[float]] = {}
        for cost in self.instances:
            row = rows.setdefault(cost.module_type, [0.0, 0.0, 0.0])
            row[0] += 1.0
            row[1] += cost.trigger_hz
            row[2] += cost.us_per_s / 1000.0
        return sorted(
            ((name, r[0], r[1], r[2]) for name, r in rows.items()),
            key=lambda row: -row[3],
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "fleet_size": self.fleet_size,
            "budget_ms": self.budget_ms,
            "total_ms_per_s": round(self.total_ms_per_s, 3),
            "budget_used": round(self.total_ms_per_s / self.budget_ms, 4),
            "types": [
                {
                    "type": name,
                    "instances": count,
                    "trigger_hz": round(trigger_hz, 3),
                    "ms_per_s": round(ms, 3),
                }
                for name, count, trigger_hz, ms in self.by_type()
            ],
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }

    def render(self) -> str:
        lines = [
            f"cost report: {self.file}",
            f"  fleet size N={self.fleet_size} (nodes the collectors name); "
            f"budget {self.budget_ms:g} ms per 1 s tick",
            "  type             inst   trig/s      ms/s   share",
        ]
        total = self.total_ms_per_s or 1.0
        for name, count, trigger_hz, ms in self.by_type():
            lines.append(
                f"  {name:<15} {count:>6g} {trigger_hz:>8.1f} "
                f"{ms:>9.3f} {100.0 * ms / total:>6.1f}%"
            )
        lines.append(
            f"  total: {self.total_ms_per_s:.1f} ms per simulated second "
            f"({100.0 * self.total_ms_per_s / self.budget_ms:.1f}% of budget)"
        )
        return "\n".join(lines)


def _node_names(spec: InstanceSpec) -> List[str]:
    """The nodes an instance's ``nodes`` list or ``node`` param names."""
    names = spec.params.get("nodes", spec.params.get("node", ""))
    return [name.strip() for name in names.split(",") if name.strip()]


def _number(
    spec: InstanceSpec, module_class: Optional[Type[Module]], name: str
) -> Optional[float]:
    """A numeric parameter's value, else its declared default; None when
    neither is a number (``analyze_config`` reports why)."""
    if module_class is None:
        return None
    try:
        value = param_value(module_class.params, spec.params, name)
    except ValueError:
        return None
    return value if isinstance(value, (int, float)) else None


def _int_param(
    spec: InstanceSpec, module_class: Optional[Type[Module]], name: str
) -> Optional[int]:
    value = _number(spec, module_class, name)
    return None if value is None else int(value)


class _Estimator:
    def __init__(
        self,
        specs: Sequence[InstanceSpec],
        registry: ModuleRegistry,
        file: str,
        budget_ms: Optional[float],
    ) -> None:
        self.registry = registry
        self.file = file
        self.specs = list(specs)
        self.spec_by_id = {s.instance_id: s for s in self.specs}
        if budget_ms is None:
            budget_ms = DEFAULT_TICK_BUDGET_MS
        if not budget_ms > 0:
            raise ValueError(f"tick budget must be positive, got {budget_ms}")
        self.budget_ms = budget_ms
        self.fleet_size = self._resolve_fleet_size()
        # Per-instance propagated state.
        self.emit_hz: Dict[str, float] = {}
        self.batch: Dict[str, float] = {}
        self.conn_total: Dict[str, float] = {}

    def _resolve_fleet_size(self) -> int:
        """The number of distinct nodes the collectors name (at least 1)."""
        nodes = set()
        for spec in self.specs:
            nodes.update(_node_names(spec))
        return max(len(nodes), 1)

    def _topo_order(self) -> Optional[List[InstanceSpec]]:
        indegree = {s.instance_id: 0 for s in self.specs}
        downstream: Dict[str, List[str]] = {
            s.instance_id: [] for s in self.specs
        }
        for spec in self.specs:
            for wire in spec.inputs:
                if (
                    wire.instance_id in self.spec_by_id
                    and wire.instance_id != spec.instance_id
                ):
                    indegree[spec.instance_id] += 1
                    downstream[wire.instance_id].append(spec.instance_id)
        order: List[InstanceSpec] = []
        queue = [i for i, d in indegree.items() if d == 0]
        while queue:
            node = queue.pop()
            order.append(self.spec_by_id[node])
            for successor in downstream[node]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    queue.append(successor)
        return order if len(order) == len(self.specs) else None

    def _connections(
        self, spec: InstanceSpec
    ) -> List[Tuple[str, float]]:
        """Wired upstream connections as ``(upstream_id, count)``; the
        ``@instance`` form counts one connection per upstream output."""
        connections: List[Tuple[str, float]] = []
        for wire in spec.inputs:
            upstream = self.spec_by_id.get(wire.instance_id)
            if upstream is None or wire.instance_id == spec.instance_id:
                continue
            count = 1.0
            if wire.output_name is None:
                upstream_class = self.registry.get(upstream.module_type)
                outputs = (
                    upstream_class.outputs_for(upstream.params)
                    if upstream_class is not None else None
                )
                if outputs is not None:
                    count = float(max(len(outputs), 1))
                else:
                    # Opaque outputs (knnfleet): one output per upstream
                    # connection is the paper's fan-in/fan-out pattern.
                    count = max(
                        self.conn_total.get(upstream.instance_id, 1.0), 1.0
                    )
            connections.append((upstream.instance_id, count))
        return connections

    def _scale_product(
        self,
        spec: InstanceSpec,
        module_class: Optional[Type[Module]],
        symbols: Tuple[str, ...],
        conn_total: float,
    ) -> float:
        product = 1.0
        for symbol in symbols:
            if symbol == "n_inputs":
                product *= max(conn_total, 1.0)
            elif symbol == "nodes":
                product *= max(len(_node_names(spec)), 1)
            elif symbol == "dim":
                metrics = spec.params.get("metrics", "")
                names = [m for m in metrics.split(",") if m.strip()]
                product *= len(names) if names else DEFAULT_DIM
            else:
                value = _int_param(spec, module_class, symbol)
                product *= value if value is not None and value > 0 else 1
        return product

    def run(self) -> CostReport:
        report = CostReport(
            file=self.file,
            fleet_size=self.fleet_size,
            budget_ms=self.budget_ms,
        )
        order = self._topo_order()
        if order is None:
            # Cyclic wiring: the FPT005 error owns this config;
            # a rate fixpoint does not exist, so no estimate is emitted.
            return report

        for spec in order:
            module_class = self.registry.get(spec.module_type)
            fact = COST_FACTS.get(spec.module_type)
            connections = self._connections(spec)

            update_in = 0.0
            sample_in = 0.0
            conn_total = 0.0
            slowest = float("inf")
            for upstream_id, count in connections:
                hz = self.emit_hz.get(upstream_id, 0.0)
                update_in += count * hz
                sample_in += count * hz * self.batch.get(upstream_id, 1.0)
                conn_total += count
                if hz > 0:
                    slowest = min(slowest, hz)
            self.conn_total[spec.instance_id] = conn_total

            trigger = module_class.trigger if module_class is not None else None
            kind = trigger.kind if trigger is not None else ""
            if kind == "periodic":
                interval = _number(spec, module_class, "interval")
                trigger_hz = 1.0 / max(
                    1.0 if interval is None else interval, 1e-9
                )
            elif kind == "fixed":
                trigger_hz = update_in / max(trigger.updates, 1)
            elif kind == "per_connection":
                trigger_hz = slowest if slowest != float("inf") else 0.0
            else:
                trigger_hz = update_in

            # Emission: elements are conserved through the instance,
            # except batchers (ibuffer) re-window each connection's
            # stream, onto an output of its own, by slide/size.
            if fact is not None and fact.batch_param:
                size = _int_param(spec, module_class, fact.batch_param) or 1
                slide = _int_param(spec, module_class, "slide") or size
                emit_hz = sample_in / max(conn_total, 1.0) / max(slide, 1)
                batch_out = float(size)
            elif not connections:
                emit_hz, batch_out = trigger_hz, 1.0
            else:
                emit_hz = trigger_hz
                # Fan-out modules (opaque outputs, e.g. knnfleet) split
                # the conserved element stream across one output per
                # upstream connection; others emit it on each output.
                opaque = (
                    module_class is not None
                    and module_class.outputs_for(spec.params) is None
                )
                streams = conn_total if opaque else 1.0
                batch_out = (
                    sample_in / trigger_hz / max(streams, 1.0)
                    if trigger_hz > 0
                    else 1.0
                )
            self.emit_hz[spec.instance_id] = emit_hz
            self.batch[spec.instance_id] = batch_out

            slide = _int_param(spec, module_class, "slide")
            per_conn_sample_hz = (
                sample_in / conn_total if conn_total > 0 else sample_in
            )
            window_hz = (
                per_conn_sample_hz / slide if slide and slide > 0 else 0.0
            )

            cost = InstanceCost(
                instance_id=spec.instance_id,
                module_type=spec.module_type,
                trigger_hz=trigger_hz,
            )
            if fact is not None:
                rates = {
                    "trigger": trigger_hz, "sample": sample_in, "window": window_hz,
                }
                for term in fact.terms:
                    cost.us_per_s += term.us * rates[term.per] * (
                        self._scale_product(spec, module_class, term.scales, conn_total)
                    )
                if fact.window_recompute:
                    self._check_window_recompute(report, spec, module_class)
            report.instances.append(cost)

        self._check_budget(report)
        report.diagnostics = sort_diagnostics(report.diagnostics)
        return report

    # -- diagnostics --------------------------------------------------------

    def _check_window_recompute(
        self,
        report: CostReport,
        spec: InstanceSpec,
        module_class: Optional[Type[Module]],
    ) -> None:
        window = _int_param(spec, module_class, "window")
        slide = _int_param(spec, module_class, "slide")
        if window is None or slide is None or slide >= window:
            return
        report.diagnostics.append(
            Diagnostic(
                code="FPT303",
                message=(
                    f"[{spec.module_type}] recomputes its {window}-sample "
                    f"window from scratch every {slide}-sample slide; "
                    f"{window - slide} samples are re-scanned each round "
                    "(no incremental update)"
                ),
                line=spec.param_line("slide"),
                file=self.file,
                instance=spec.instance_id,
            )
        )

    def _check_budget(self, report: CostReport) -> None:
        if report.total_ms_per_s <= report.budget_ms:
            return
        report.diagnostics.append(
            Diagnostic(
                code="FPT301",
                message=(
                    f"estimated analysis cost {report.total_ms_per_s:.1f} ms "
                    f"per 1 s tick exceeds the {report.budget_ms:g} ms budget "
                    f"at fleet size N={report.fleet_size}; the online "
                    "pipeline would fall behind its sources"
                ),
                file=self.file,
            )
        )


def estimate_specs(
    specs: Sequence[InstanceSpec],
    registry: Optional[ModuleRegistry] = None,
    file: str = "<config>",
    budget_ms: Optional[float] = None,
) -> CostReport:
    """Cost-estimate pre-parsed instance specs (no syntax layer, no noqa)."""
    return _Estimator(specs, default_registry(registry), file, budget_ms).run()


def estimate_config(
    text: str,
    registry: Optional[ModuleRegistry] = None,
    file: str = "<config>",
    budget_ms: Optional[float] = None,
    noqa: bool = True,
) -> CostReport:
    """Cost-estimate configuration text; ``registry`` (default: the
    standard registry) supplies the module classes' declarations.

    ``budget_ms`` is the tick budget (default
    :data:`DEFAULT_TICK_BUDGET_MS`); a non-positive one is a ``ValueError``.
    Syntax errors are not re-reported here -- run
    :func:`~repro.lint.analyze_config` for the FPT0xx layer.
    """
    errors: List[ConfigError] = []
    specs = parse_config(text, collect=errors)
    report = estimate_specs(specs, registry, file, budget_ms)
    if noqa:
        report.diagnostics = apply_noqa(report.diagnostics, text)
    return report


__all__ = [
    "COST_FACTS",
    "COST_SYMBOLS",
    "COST_UNITS",
    "CostFact",
    "CostReport",
    "CostTerm",
    "DEFAULT_DIM",
    "DEFAULT_TICK_BUDGET_MS",
    "InstanceCost",
    "estimate_config",
    "estimate_specs",
]
