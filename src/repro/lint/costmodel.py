"""Static DAG cost model for fpt-core configurations (FPT30x/31x).

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

The coefficients are calibrated against the committed
``BENCH_scale.json`` pipeline measurements and promise only
order-of-magnitude accuracy; CI asserts the N=1000 estimate lands
within 3x of the measured rate.

Diagnostics:

* **FPT301** (error) -- the summed estimate exceeds the tick budget:
  the deployment cannot keep up with real time.
* **FPT302** (warning) -- a per-node hot module (``knn``) is
  instantiated at fleet scale although a fleet-batched equivalent
  (``knnfleet``) exists.
* **FPT303** (warning) -- a window_recompute module slides by less than
  its window, so the overlap is re-scanned from scratch every round.

Fleet size ``N`` is read from an optional lint-only ``[scale]`` section
(``n = 1000``) -- useful for config *templates* that show one
representative per-node chain -- or inferred from per-node instance
counts in fully expanded deployments.  In template mode every per-node
instance (and the rates it feeds downstream) is multiplied by ``N``.

:func:`scan_hot_modules` is the companion vectorization lint: it walks
the source of every module whose cost fact marks it ``hot`` and flags
per-node Python loops (FPT310), per-sample allocations inside loops
(FPT311), and O(N) fleet scans per trigger (FPT312).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.config import ConfigError, InstanceSpec, parse_config
from ..core.registry import ModuleRegistry
from ..sysstat.metrics import NODE_METRICS
from .contracts import ContractRegistry, CostFact, ModuleContract
from .diagnostics import Diagnostic, apply_noqa, sort_diagnostics
from .implcheck import effective_class_bodies

#: Default tick budget: one simulated second of analysis must fit in one
#: wall-clock second, or the online pipeline falls behind its sources.
DEFAULT_TICK_BUDGET_MS = 1000.0

#: Metric-vector dimensionality assumed when an instance does not pin
#: its own ``metrics`` list (the full sadc catalog).
DEFAULT_DIM = len(NODE_METRICS)

#: Instance count (after template expansion) at which a per-node hot
#: module counts as "fleet scale" for FPT302.
FLEET_THRESHOLD = 100


@dataclass
class InstanceCost:
    """Computed rates and cost for one config instance."""

    instance_id: str
    module_type: str
    #: Template-mode expansion factor (1 in expanded deployments).
    factor: float = 1.0
    trigger_hz: float = 0.0
    #: Incoming sample elements per second (batches unpacked).
    sample_hz: float = 0.0
    #: Completed window rounds per second.
    window_hz: float = 0.0
    #: Estimated CPU microseconds per simulated second, including factor.
    us_per_s: float = 0.0


@dataclass
class CostReport:
    """The full cost estimate for one configuration."""

    file: str = "<config>"
    fleet_size: int = 0
    #: True when N came from a ``[scale]`` section (template mode).
    template: bool = False
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
            row[0] += cost.factor
            row[1] += cost.trigger_hz * cost.factor
            row[2] += cost.us_per_s / 1000.0
        return sorted(
            ((name, r[0], r[1], r[2]) for name, r in rows.items()),
            key=lambda row: -row[3],
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "fleet_size": self.fleet_size,
            "template": self.template,
            "budget_ms": self.budget_ms,
            "total_ms_per_s": round(self.total_ms_per_s, 3),
            "budget_used": round(
                self.total_ms_per_s / self.budget_ms, 4
            ) if self.budget_ms else None,
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
        origin = "[scale] section" if self.template else "per-node instances"
        lines = [
            f"cost report: {self.file}",
            f"  fleet size N={self.fleet_size} (from {origin}); "
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
        self.scale_spec = next(
            (s for s in specs if s.module_type == "scale"), None
        )
        self.specs = [s for s in specs if s.module_type != "scale"]
        self.spec_by_id = {s.instance_id: s for s in self.specs}
        self.budget_ms = self._resolve_budget(budget_ms)
        self.template = False
        self.fleet_size = self._resolve_fleet_size()
        # Per-instance propagated state.
        self.emit_hz: Dict[str, float] = {}
        self.batch: Dict[str, float] = {}
        self.conn_total: Dict[str, float] = {}

    def _resolve_budget(self, cli_budget: Optional[float]) -> float:
        if cli_budget is not None:
            return cli_budget
        if self.scale_spec is not None:
            return _float_param(
                self.scale_spec, self.contracts.get("scale"),
                "tick_budget_ms", DEFAULT_TICK_BUDGET_MS,
            )
        return DEFAULT_TICK_BUDGET_MS

    def _fact(self, spec: InstanceSpec) -> Optional[CostFact]:
        contract = self.contracts.get(spec.module_type)
        return contract.cost if contract is not None else None

    def _resolve_fleet_size(self) -> int:
        if self.scale_spec is not None:
            n = _int_param(
                self.scale_spec, self.contracts.get("scale"), "n"
            )
            if n is not None and n > 0:
                self.template = True
                return n
        counts: Dict[str, int] = {}
        for spec in self.specs:
            fact = self._fact(spec)
            if fact is not None and fact.per_node:
                counts[spec.module_type] = counts.get(spec.module_type, 0) + 1
        return max(counts.values(), default=1)

    def _factor(self, spec: InstanceSpec) -> float:
        if not self.template:
            return 1.0
        fact = self._fact(spec)
        return float(self.fleet_size) if fact and fact.per_node else 1.0

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

    def _term_rate(
        self, per: str, trigger_hz: float, sample_hz: float, window_hz: float
    ) -> float:
        if per == "sample":
            return sample_hz
        if per == "window":
            return window_hz
        return trigger_hz

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
            template=self.template,
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
            factor = self._factor(spec)
            connections = self._connections(spec)

            update_in = 0.0
            sample_in = 0.0
            conn_total = 0.0
            slowest = float("inf")
            for upstream_id, count in connections:
                upstream_factor = self._factor(self.spec_by_id[upstream_id])
                hz = self.emit_hz.get(upstream_id, 0.0)
                update_in += count * hz * upstream_factor / factor
                sample_in += (
                    count * hz * self.batch.get(upstream_id, 1.0)
                    * upstream_factor / factor
                )
                conn_total += count * upstream_factor / factor
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
                factor=factor,
                trigger_hz=trigger_hz,
                sample_hz=sample_in,
                window_hz=window_hz,
            )
            if fact is not None:
                for term in fact.terms:
                    rate = self._term_rate(
                        term.per, trigger_hz, sample_in, window_hz
                    )
                    cost.us_per_s += (
                        factor * term.us * rate
                        * self._scale_product(
                            spec, contract, term.scales, conn_total
                        )
                    )
                if fact.window_recompute:
                    self._check_window_recompute(report, spec, contract)
            report.instances.append(cost)

        self._check_budget(report)
        self._check_fleet_equivalents(report)
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

    def _check_fleet_equivalents(self, report: CostReport) -> None:
        first: Dict[str, InstanceSpec] = {}
        effective: Dict[str, float] = {}
        for spec in self.specs:
            fact = self._fact(spec)
            if (
                fact is None or not fact.per_node or not fact.hot
                or not fact.fleet_equivalent
                or fact.fleet_equivalent not in self.contracts
            ):
                continue
            first.setdefault(spec.module_type, spec)
            effective[spec.module_type] = (
                effective.get(spec.module_type, 0.0) + self._factor(spec)
            )
        for module_type, count in effective.items():
            if count < FLEET_THRESHOLD:
                continue
            spec = first[module_type]
            equivalent = self._fact(spec).fleet_equivalent
            report.diagnostics.append(
                Diagnostic(
                    code="FPT302",
                    message=(
                        f"{count:g} per-node [{module_type}] instances on "
                        f"the hot path at fleet size N={report.fleet_size}; "
                        f"a single fleet-batched [{equivalent}] replaces "
                        "them with one vectorized instance"
                    ),
                    line=spec.header_line,
                    file=self.file,
                    instance=spec.instance_id,
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

    ``budget_ms`` overrides the tick budget (default: a ``[scale]``
    section's ``tick_budget_ms``, else :data:`DEFAULT_TICK_BUDGET_MS`).
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


# -- FPT31x: vectorization lint over hot module sources ---------------------

#: Identifier substrings that mark an iterable as per-node / per-fleet.
_PER_NODE_NAMES = ("nodes", "backlog", "peers", "conns", "inputs")

#: Allocation calls that should not run once per sample inside a loop.
_ALLOC_ATTRS = {
    "asarray", "array", "zeros", "ones", "empty", "full",
    "concatenate", "stack", "vstack", "copy",
}
_ALLOC_NAMES = {"list", "dict", "set", "bytearray"}


def _identifier_leaves(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _is_per_node_iterable(node: ast.AST) -> bool:
    return any(
        marker in name.lower()
        for name in _identifier_leaves(node)
        for marker in _PER_NODE_NAMES
    )


class _HotLoopVisitor(ast.NodeVisitor):
    """Collects FPT310/311/312 findings inside one hot module class."""

    def __init__(self, type_name: str, file: str, offset: int) -> None:
        self.type_name = type_name
        self.file = file
        self.offset = offset
        self.findings: List[Diagnostic] = []
        self._loop_depth = 0

    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            Diagnostic(
                code=code,
                message=message,
                line=getattr(node, "lineno", 1) + self.offset,
                file=self.file,
                instance=self.type_name,
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if _is_per_node_iterable(node.iter):
            self._emit(
                "FPT310",
                "hot module iterates the fleet in a Python for-loop; "
                "batch the per-node work into array ops",
                node,
            )
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        if self._loop_depth > 0:
            func = node.func
            name = None
            if isinstance(func, ast.Attribute) and func.attr in _ALLOC_ATTRS:
                name = func.attr
            elif isinstance(func, ast.Name) and func.id in _ALLOC_NAMES:
                name = func.id
            if name is not None:
                self._emit(
                    "FPT311",
                    f"allocation ({name}) inside a hot loop -- one "
                    "allocation per sample; hoist or batch it",
                    node,
                )
        self.generic_visit(node)

    def _check_scan(self, node: ast.AST, iterable: ast.AST) -> None:
        if self._loop_depth == 0 and _is_per_node_iterable(iterable):
            self._emit(
                "FPT312",
                "whole-fleet scan (O(N)) on every trigger; precompute "
                "or vectorize the scan",
                node,
            )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for comp in node.generators:
            self._check_scan(node, comp.iter)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        for comp in node.generators:
            self._check_scan(node, comp.iter)
        self.generic_visit(node)


def scan_hot_modules(
    registry: Optional[ModuleRegistry] = None,
    contracts: Optional[ContractRegistry] = None,
    noqa: bool = True,
) -> List[Diagnostic]:
    """FPT310-312 over every module whose cost fact marks it hot."""
    if registry is None:
        from ..modules import standard_registry

        registry = standard_registry()
    if contracts is None:
        from .contracts import standard_contracts

        contracts = standard_contracts()
    diagnostics: List[Diagnostic] = []
    for type_name in registry:
        contract = contracts.get(type_name)
        if contract is None or contract.cost is None or not contract.cost.hot:
            continue
        try:
            bodies = list(effective_class_bodies(registry.resolve(type_name)))
        except (OSError, TypeError):
            continue
        # An inherited ``run`` is hot all the same: every class below
        # ``Module`` is scanned, against its own file's lines and noqa.
        for body, file, offset in bodies:
            visitor = _HotLoopVisitor(type_name, file, offset)
            # Only steady-state code is hot: ``init()``/``__init__`` run
            # once per deployment, so their setup loops are exempt.
            for item in body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and item.name not in ("init", "__init__"):
                    visitor.visit(item)
            findings = visitor.findings
            if noqa and findings:
                try:
                    with open(file, "r", encoding="utf-8") as handle:
                        findings = apply_noqa(findings, handle.read())
                except OSError:
                    pass
            diagnostics.extend(findings)
    return sort_diagnostics(diagnostics)


__all__ = [
    "CostReport",
    "DEFAULT_DIM",
    "DEFAULT_TICK_BUDGET_MS",
    "FLEET_THRESHOLD",
    "InstanceCost",
    "estimate_config",
    "estimate_specs",
    "scan_hot_modules",
]
