"""Static DAG cost model for fpt-core configurations (FPT301/303).

:func:`estimate_config` folds a parsed configuration's DAG into a
predicted per-tick CPU cost **without running a single module**.  Each
module contract carries a :class:`~repro.lint.contracts.CostFact` -- a
set of calibrated work terms charged per trigger, per sample element,
or per completed window round.  The model propagates data rates through
the DAG (periodic sources at ``1/interval``; ``fixed(u)`` triggers at
``in_rate/u``; per-connection triggers at the slowest connection;
ibuffers batching ``size`` elements every ``slide`` updates), resolves
each term's scale symbols (``window``, ``k``, ``dim``, ``n_inputs``,
...) from the instance parameters, and sums microseconds per simulated
second.

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

Fleet size ``N`` is inferred from per-node instance counts (the most
numerous type whose cost fact is ``per_node``); the tick budget is
:data:`DEFAULT_TICK_BUDGET_MS` unless the caller passes ``budget_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import ConfigError, InstanceSpec, parse_config
from ..core.registry import ModuleRegistry
from ..sysstat.metrics import NODE_METRICS
from .contracts import ContractRegistry, ModuleContract
from .diagnostics import Diagnostic, apply_noqa, sort_diagnostics

#: Default tick budget: one simulated second of analysis must fit in one
#: wall-clock second, or the online pipeline falls behind its sources.
DEFAULT_TICK_BUDGET_MS = 1000.0

#: Metric-vector dimensionality assumed when an instance does not pin
#: its own ``metrics`` list (the full sadc catalog).
DEFAULT_DIM = len(NODE_METRICS)


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
            f"  fleet size N={self.fleet_size} (from per-node instances); "
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


def _int_param(
    spec: InstanceSpec,
    contract: Optional[ModuleContract],
    name: str,
    _depth: int = 0,
) -> Optional[int]:
    """Resolve an int parameter, following contract defaults -- which may
    name another parameter (ibuffer ``slide`` defaults to ``size``)."""
    raw = spec.params.get(name)
    if raw is not None:
        try:
            return int(float(raw))
        except ValueError:
            return None
    if contract is None or _depth > 2:
        return None
    declared = contract.param(name)
    if declared is None or declared.default is None:
        return None
    try:
        return int(float(declared.default))
    except ValueError:
        if declared.default != name:
            return _int_param(spec, contract, declared.default, _depth + 1)
        return None


def _float_param(
    spec: InstanceSpec,
    contract: Optional[ModuleContract],
    name: str,
    fallback: float,
) -> float:
    raw = spec.params.get(name)
    if raw is None and contract is not None:
        declared = contract.param(name)
        raw = declared.default if declared is not None else None
    try:
        return float(raw) if raw is not None else fallback
    except ValueError:
        return fallback


class _Estimator:
    def __init__(
        self,
        specs: Sequence[InstanceSpec],
        contracts: ContractRegistry,
        file: str,
        budget_ms: Optional[float],
    ) -> None:
        self.contracts = contracts
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
        """The instance count of the most numerous ``per_node`` type."""
        counts: Dict[str, int] = {}
        for spec in self.specs:
            contract = self.contracts.get(spec.module_type)
            if contract and contract.cost and contract.cost.per_node:
                counts[spec.module_type] = counts.get(spec.module_type, 0) + 1
        return max(counts.values(), default=1)

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
                contract = self.contracts.get(upstream.module_type)
                outputs = (
                    contract.outputs_for(upstream)
                    if contract is not None else None
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
        contract: Optional[ModuleContract],
        symbols: Tuple[str, ...],
        conn_total: float,
    ) -> float:
        product = 1.0
        for symbol in symbols:
            if symbol == "n_inputs":
                product *= max(conn_total, 1.0)
            elif symbol == "nodes":
                nodes = spec.params.get("nodes", "")
                product *= max(
                    len([n for n in nodes.split(",") if n.strip()]), 1
                )
            elif symbol == "dim":
                metrics = spec.params.get("metrics", "")
                names = [m for m in metrics.split(",") if m.strip()]
                product *= len(names) if names else DEFAULT_DIM
            else:
                value = _int_param(spec, contract, symbol)
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
            # Cyclic wiring: the FPT005 analyzer error owns this config;
            # a rate fixpoint does not exist, so no estimate is emitted.
            return report

        for spec in order:
            contract = self.contracts.get(spec.module_type)
            fact = contract.cost if contract is not None else None
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

            trigger = contract.trigger if contract is not None else None
            kind = trigger.kind if trigger is not None else ""
            if kind == "periodic":
                trigger_hz = 1.0 / max(
                    _float_param(spec, contract, "interval", 1.0), 1e-9
                )
            elif kind == "fixed":
                trigger_hz = update_in / max(trigger.updates, 1)
            elif kind == "param":
                updates = _int_param(spec, contract, trigger.param) or 1
                trigger_hz = update_in / max(updates, 1)
            elif kind == "per_connection":
                trigger_hz = slowest if slowest != float("inf") else 0.0
            else:
                trigger_hz = update_in

            # Emission: elements are conserved through the instance,
            # except batchers (ibuffer) re-window them by slide/size.
            if fact is not None and fact.batch_param:
                size = _int_param(spec, contract, fact.batch_param) or 1
                slide = _int_param(spec, contract, "slide") or size
                emit_hz = sample_in / max(slide, 1)
                batch_out = float(size)
            elif not connections:
                emit_hz, batch_out = trigger_hz, 1.0
            else:
                emit_hz = trigger_hz
                # Fan-out modules (opaque outputs, e.g. knnfleet) split
                # the conserved element stream across one output per
                # upstream connection; others emit it on each output.
                streams = (
                    conn_total
                    if contract is not None and contract.opaque_outputs
                    else 1.0
                )
                batch_out = (
                    sample_in / trigger_hz / max(streams, 1.0)
                    if trigger_hz > 0
                    else 1.0
                )
            self.emit_hz[spec.instance_id] = emit_hz
            self.batch[spec.instance_id] = batch_out

            slide = _int_param(spec, contract, "slide")
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
                        self._scale_product(spec, contract, term.scales, conn_total)
                    )
                if fact.window_recompute:
                    self._check_window_recompute(report, spec, contract)
            report.instances.append(cost)

        self._check_budget(report)
        report.diagnostics = sort_diagnostics(report.diagnostics)
        return report

    # -- diagnostics --------------------------------------------------------

    def _check_window_recompute(
        self,
        report: CostReport,
        spec: InstanceSpec,
        contract: Optional[ModuleContract],
    ) -> None:
        window = _int_param(spec, contract, "window")
        slide = _int_param(spec, contract, "slide")
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
    contracts: ContractRegistry,
    file: str = "<config>",
    budget_ms: Optional[float] = None,
) -> CostReport:
    """Cost-estimate pre-parsed instance specs (no syntax layer, no noqa)."""
    return _Estimator(specs, contracts, file, budget_ms).run()


def estimate_config(
    text: str,
    registry: Optional[ModuleRegistry] = None,
    contracts: Optional[ContractRegistry] = None,
    file: str = "<config>",
    budget_ms: Optional[float] = None,
    noqa: bool = True,
) -> CostReport:
    """Cost-estimate configuration text against its contracts.

    ``budget_ms`` is the tick budget (default
    :data:`DEFAULT_TICK_BUDGET_MS`); a non-positive one is a ``ValueError``.
    Syntax errors are not re-reported here -- run
    :func:`~repro.lint.analyzer.analyze_config` for the FPT0xx layer.
    """
    if contracts is None:
        from .analyzer import _default_contracts

        contracts = _default_contracts(registry)
    errors: List[ConfigError] = []
    specs = parse_config(text, collect=errors)
    report = estimate_specs(specs, contracts, file, budget_ms)
    if noqa:
        report.diagnostics = apply_noqa(report.diagnostics, text)
    return report


__all__ = [
    "CostReport",
    "DEFAULT_DIM",
    "DEFAULT_TICK_BUDGET_MS",
    "InstanceCost",
    "estimate_config",
    "estimate_specs",
]
