"""Static analysis of fpt-core configurations (the FPT0xx checks).

:func:`analyze_config` parses a configuration the same way
:func:`repro.core.config.parse_config` does -- but leniently, collecting
every problem instead of stopping at the first -- and then validates the
parsed instance graph against a :class:`~repro.lint.contracts.ContractRegistry`
**without instantiating a single module**.  A config that analyzes clean
will construct a DAG; a config with FPT-error diagnostics would fail (or
silently misbehave) minutes into a 900 s scenario.

Checks, in evaluation order:

* syntax / duplicate ids (FPT000, FPT002) -- from the lenient parser;
* unknown module types (FPT001);
* parameters: unknown (FPT007), missing required (FPT010), bad type
  (FPT008), out of range or failing a cross-param rule (FPT009);
* wiring: unknown upstream instance (FPT003), nonexistent output
  (FPT004), contract violations -- unknown port, missing required port,
  multiplicity, inputs on a source (FPT011);
* graph: cycles including self-loops (FPT005), instances that cannot
  reach any sink (FPT006);
* scheduling: trigger thresholds no wiring can ever satisfy (FPT012),
  peer-comparison groups below the paper's 3-node minimum (FPT013).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.config import ConfigError, InstanceSpec, parse_config
from ..core.registry import ModuleRegistry
from .contracts import (
    ContractRegistry,
    ModuleContract,
    parse_param_value,
)
from .diagnostics import (
    Diagnostic,
    apply_noqa,
    marker_errors,
    sort_diagnostics,
)

#: Minimum peers the paper's analyses need; contracts may override.
DEFAULT_MIN_PEERS = 3


def _default_contracts(
    registry: Optional[ModuleRegistry],
) -> ContractRegistry:
    from .implcheck import contracts_for_registry  # circular-free at call time

    if registry is None:
        from ..modules import standard_registry

        registry = standard_registry()
    return contracts_for_registry(registry)


class _Analyzer:
    def __init__(
        self,
        specs: Sequence[InstanceSpec],
        contracts: ContractRegistry,
        file: str,
    ) -> None:
        self.specs = list(specs)
        self.contracts = contracts
        self.file = file
        self.diagnostics: List[Diagnostic] = []
        self.spec_by_id: Dict[str, InstanceSpec] = {
            spec.instance_id: spec for spec in self.specs
        }
        #: instance id -> resolved output names (None = unknowable).
        self.outputs: Dict[str, Optional[List[str]]] = {}
        #: instance id -> total wired upstream connections.
        self.connection_counts: Dict[str, int] = {}
        #: data-flow edges as (upstream id, consumer id).
        self.edges: List[Tuple[str, str]] = []

    # -- helpers ------------------------------------------------------------

    def emit(
        self, code: str, message: str, *, line: int = 0, instance: str = ""
    ) -> None:
        self.diagnostics.append(
            Diagnostic(
                code=code,
                message=message,
                line=line,
                file=self.file,
                instance=instance,
            )
        )

    def contract(self, spec: InstanceSpec) -> Optional[ModuleContract]:
        return self.contracts.get(spec.module_type)

    # -- passes -------------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        for spec in self.specs:
            contract = self.contract(spec)
            if contract is None:
                self.emit(
                    "FPT001",
                    f"unknown module type '{spec.module_type}' "
                    f"(known: {sorted(self.contracts)})",
                    line=spec.header_line,
                    instance=spec.instance_id,
                )
                self.outputs[spec.instance_id] = None
                continue
            self.outputs[spec.instance_id] = contract.outputs_for(spec)
            self.check_params(spec, contract)
        for spec in self.specs:
            self.check_wiring(spec, self.contract(spec))
        self.check_cycles()
        self.check_reachability()
        for spec in self.specs:
            contract = self.contract(spec)
            if contract is not None:
                self.check_scheduling(spec, contract)
        return self.diagnostics

    # -- parameters ---------------------------------------------------------

    def check_params(self, spec: InstanceSpec, contract: ModuleContract) -> None:
        parsed: Dict[str, object] = {}
        if not contract.opaque_params:
            for name in spec.params:
                if contract.param(name) is None:
                    self.emit(
                        "FPT007",
                        f"parameter '{name}' is not consumed by "
                        f"[{spec.module_type}] (declared params: "
                        f"{sorted(p.name for p in contract.params)})",
                        line=spec.param_line(name),
                        instance=spec.instance_id,
                    )
            for param in contract.params:
                if param.name not in spec.params:
                    if param.required:
                        self.emit(
                            "FPT010",
                            f"required parameter '{param.name}' "
                            f"({param.type}) is missing",
                            line=spec.header_line,
                            instance=spec.instance_id,
                        )
                    continue
                raw = spec.params[param.name]
                try:
                    value = parse_param_value(param, raw)
                except ValueError:
                    self.emit(
                        "FPT008",
                        f"parameter '{param.name}' must be {param.type}, "
                        f"got {raw!r}",
                        line=spec.param_line(param.name),
                        instance=spec.instance_id,
                    )
                    continue
                parsed[param.name] = value
                self.check_param_range(spec, param, value)
        if contract.check is not None:
            for param_name, message in contract.check(spec, parsed):
                self.emit(
                    "FPT009",
                    message,
                    line=spec.param_line(param_name),
                    instance=spec.instance_id,
                )

    def check_param_range(self, spec, param, value) -> None:
        line = spec.param_line(param.name)
        if param.type in ("int", "float"):
            if param.positive and value <= 0:
                self.emit(
                    "FPT009",
                    f"parameter '{param.name}' must be > 0, got {value}",
                    line=line,
                    instance=spec.instance_id,
                )
                return
            if param.min_value is not None and value < param.min_value:
                self.emit(
                    "FPT009",
                    f"parameter '{param.name}' must be >= "
                    f"{param.min_value:g}, got {value}",
                    line=line,
                    instance=spec.instance_id,
                )
            if param.max_value is not None and value > param.max_value:
                self.emit(
                    "FPT009",
                    f"parameter '{param.name}' must be <= "
                    f"{param.max_value:g}, got {value}",
                    line=line,
                    instance=spec.instance_id,
                )
        elif param.type == "str" and param.choices is not None:
            if value not in param.choices:
                self.emit(
                    "FPT009",
                    f"parameter '{param.name}' must be one of "
                    f"{sorted(param.choices)}, got {value!r}",
                    line=line,
                    instance=spec.instance_id,
                )
        elif param.type == "list" and param.choices is not None:
            bad = [item for item in value if item not in param.choices]
            if bad:
                self.emit(
                    "FPT009",
                    f"parameter '{param.name}' has unknown item(s) {bad}",
                    line=line,
                    instance=spec.instance_id,
                )

    # -- wiring -------------------------------------------------------------

    def check_wiring(
        self, spec: InstanceSpec, contract: Optional[ModuleContract]
    ) -> None:
        per_port: Dict[str, int] = {}
        total = 0
        for input_spec in spec.inputs:
            target = input_spec.instance_id
            if target == spec.instance_id:
                # Self-loops surface as the tightest possible cycle.
                self.emit(
                    "FPT005",
                    f"instance '{spec.instance_id}' consumes its own "
                    f"outputs (input '{input_spec.input_name}')",
                    line=input_spec.line,
                    instance=spec.instance_id,
                )
                continue
            if target not in self.spec_by_id:
                self.emit(
                    "FPT003",
                    f"input '{input_spec.input_name}' references unknown "
                    f"instance '{target}'",
                    line=input_spec.line,
                    instance=spec.instance_id,
                )
                continue
            upstream_outputs = self.outputs.get(target)
            connections = 1
            if input_spec.output_name is None:
                if upstream_outputs is not None:
                    if not upstream_outputs:
                        self.emit(
                            "FPT004",
                            f"'@{target}' wires all outputs of "
                            f"[{self.spec_by_id[target].module_type}] "
                            "but it declares none",
                            line=input_spec.line,
                            instance=spec.instance_id,
                        )
                        continue
                    connections = len(upstream_outputs)
            else:
                if (
                    upstream_outputs is not None
                    and input_spec.output_name not in upstream_outputs
                ):
                    self.emit(
                        "FPT004",
                        f"'{target}.{input_spec.output_name}' does not "
                        f"exist (outputs of [{self.spec_by_id[target].module_type}]: "
                        f"{sorted(upstream_outputs)})",
                        line=input_spec.line,
                        instance=spec.instance_id,
                    )
                    continue
            per_port[input_spec.input_name] = (
                per_port.get(input_spec.input_name, 0) + connections
            )
            total += connections
            self.edges.append((target, spec.instance_id))

        self.connection_counts[spec.instance_id] = total
        if contract is None:
            return

        if not contract.allows_inputs:
            if per_port:
                self.emit(
                    "FPT011",
                    f"[{spec.module_type}] is a data source and accepts no "
                    f"inputs, but {sorted(per_port)} are wired",
                    line=spec.inputs[0].line if spec.inputs else spec.header_line,
                    instance=spec.instance_id,
                )
            return
        if contract.accepts_any_inputs:
            if contract.requires_inputs and total == 0:
                self.emit(
                    "FPT011",
                    f"[{spec.module_type}] requires at least one wired "
                    "input but has none",
                    line=spec.header_line,
                    instance=spec.instance_id,
                )
            return
        for name, count in per_port.items():
            port = contract.port(name)
            if port is None:
                self.emit(
                    "FPT011",
                    f"[{spec.module_type}] has no input port '{name}' "
                    f"(ports: {sorted(p.name for p in contract.inputs)})",
                    line=next(
                        (i.line for i in spec.inputs if i.input_name == name),
                        spec.header_line,
                    ),
                    instance=spec.instance_id,
                )
            elif port.max_connections is not None and count > port.max_connections:
                self.emit(
                    "FPT011",
                    f"input port '{name}' takes at most "
                    f"{port.max_connections} connection(s), {count} wired",
                    line=next(
                        (i.line for i in spec.inputs if i.input_name == name),
                        spec.header_line,
                    ),
                    instance=spec.instance_id,
                )
        for port in contract.inputs:
            if port.required and port.name not in per_port:
                self.emit(
                    "FPT011",
                    f"required input port '{port.name}' is not wired",
                    line=spec.header_line,
                    instance=spec.instance_id,
                )

    # -- graph --------------------------------------------------------------

    def check_cycles(self) -> None:
        """Kahn's algorithm; whatever cannot be peeled off is cyclic."""
        indegree: Dict[str, int] = {i: 0 for i in self.spec_by_id}
        adjacency: Dict[str, List[str]] = {i: [] for i in self.spec_by_id}
        for src, dst in self.edges:
            indegree[dst] += 1
            adjacency[src].append(dst)
        queue = [i for i, d in indegree.items() if d == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for successor in adjacency[node]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    queue.append(successor)
        cyclic = sorted(i for i, d in indegree.items() if d > 0)
        if cyclic:
            first = self.spec_by_id[cyclic[0]]
            self.emit(
                "FPT005",
                f"wiring cycle through instances {cyclic}; DAG "
                "construction would fail",
                line=first.header_line,
                instance=cyclic[0],
            )

    def check_reachability(self) -> None:
        """Warn for instances whose data can never reach a sink."""
        sinks: Set[str] = set()
        for spec in self.specs:
            contract = self.contract(spec)
            if contract is None:
                # Unknown type: assume it consumes usefully; its own
                # diagnostics already cover it.
                sinks.add(spec.instance_id)
            elif contract.sink or self.outputs.get(spec.instance_id) == []:
                sinks.add(spec.instance_id)
        live: Set[str] = set(sinks)
        upstreams: Dict[str, List[str]] = {i: [] for i in self.spec_by_id}
        for src, dst in self.edges:
            upstreams[dst].append(src)
        frontier = list(sinks)
        while frontier:
            node = frontier.pop()
            for upstream in upstreams.get(node, ()):
                if upstream not in live:
                    live.add(upstream)
                    frontier.append(upstream)
        for spec in self.specs:
            if spec.instance_id not in live:
                self.emit(
                    "FPT006",
                    f"instance '{spec.instance_id}' cannot reach any sink; "
                    "its outputs are never consumed",
                    line=spec.header_line,
                    instance=spec.instance_id,
                )

    # -- scheduling ---------------------------------------------------------

    def check_scheduling(
        self, spec: InstanceSpec, contract: ModuleContract
    ) -> None:
        total = self.connection_counts.get(spec.instance_id, 0)
        trigger = contract.trigger
        if trigger is not None:
            threshold: Optional[int] = None
            line = spec.header_line
            if trigger.kind == "fixed":
                threshold = trigger.updates
            elif trigger.kind == "param":
                raw = spec.params.get(trigger.param)
                if raw is not None:
                    try:
                        threshold = int(raw)
                    except ValueError:
                        threshold = None  # FPT008 already reported
                    line = spec.param_line(trigger.param)
            if threshold is not None and threshold > total:
                self.emit(
                    "FPT012",
                    f"trigger threshold {threshold} exceeds the "
                    f"{total} wired connection(s); the instance would "
                    "never run",
                    line=line,
                    instance=spec.instance_id,
                )
        min_peers = contract.min_peers
        if min_peers is not None and total < min_peers:
            self.emit(
                "FPT013",
                f"peer comparison needs at least {min_peers} peers, "
                f"got {total} wired connection(s)",
                line=spec.header_line,
                instance=spec.instance_id,
            )


def _parse_error_diagnostics(
    errors: Sequence[ConfigError], file: str
) -> List[Diagnostic]:
    diagnostics = []
    for error in errors:
        code = (
            "FPT002" if "duplicate instance id" in str(error) else "FPT000"
        )
        diagnostics.append(
            Diagnostic(
                code=code,
                message=str(error),
                line=error.line_no or 0,
                file=file,
            )
        )
    return diagnostics


def analyze_specs(
    specs: Sequence[InstanceSpec],
    registry: Optional[ModuleRegistry] = None,
    contracts: Optional[ContractRegistry] = None,
    file: str = "<config>",
) -> List[Diagnostic]:
    """Analyze pre-parsed instance specs (no syntax layer, no noqa)."""
    if contracts is None:
        contracts = _default_contracts(registry)
    return sort_diagnostics(_Analyzer(specs, contracts, file).run())


def analyze_config(
    text: str,
    registry: Optional[ModuleRegistry] = None,
    contracts: Optional[ContractRegistry] = None,
    file: str = "<config>",
    noqa: bool = True,
) -> List[Diagnostic]:
    """Analyze configuration-file text; returns every diagnostic found.

    ``registry`` (default: the standard registry) supplies module classes
    for contract inference; ``contracts`` overrides the contract registry
    entirely.  ``# fpt: noqa`` markers in ``text`` suppress
    diagnostics on their line unless ``noqa=False``.
    """
    if contracts is None:
        contracts = _default_contracts(registry)
    errors: List[ConfigError] = []
    specs = parse_config(text, collect=errors)
    diagnostics = _parse_error_diagnostics(errors, file)
    diagnostics.extend(_Analyzer(specs, contracts, file).run())
    diagnostics.extend(marker_errors(text, file))
    if noqa:
        diagnostics = apply_noqa(diagnostics, text)
    return sort_diagnostics(diagnostics)
