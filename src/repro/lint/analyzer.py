"""Static analysis of fpt-core configurations (the FPT0xx checks).

:func:`analyze_config` parses a configuration the same way
:func:`repro.core.config.parse_config` does -- but leniently, collecting
every problem instead of stopping at the first -- and then validates the
parsed instance graph against the declarations of the registered module
classes (:mod:`repro.core.declaration`) **without instantiating a single
module**.  A config that analyzes clean will construct a DAG; a config
with FPT-error diagnostics would fail (or silently misbehave) minutes
into a 900 s scenario.

Checks, in evaluation order:

* syntax / duplicate ids (FPT000, FPT002) -- from the lenient parser;
* unknown module types (FPT001);
* parameters: unknown (FPT007), missing required (FPT010), bad type
  (FPT008), out of range or failing a cross-param rule (FPT009) -- the
  problems of :func:`~repro.core.declaration.check_params`, the same
  check that makes ``FptCore.from_config`` raise ``ConfigError``;
* wiring: unknown upstream instance (FPT003), nonexistent output
  (FPT004), port violations -- unknown port, missing required port,
  multiplicity, inputs on a source (FPT011);
* graph: cycles including self-loops (FPT005), instances that cannot
  reach any sink (FPT006);
* scheduling: trigger thresholds no wiring can ever satisfy (FPT012),
  peer-comparison groups below the paper's 3-node minimum (FPT013).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from ..core.config import ConfigError, InstanceSpec, parse_config
from ..core.declaration import check_params
from ..core.module import Module
from ..core.registry import ModuleRegistry
from .diagnostics import (
    Diagnostic,
    apply_noqa,
    marker_errors,
    sort_diagnostics,
)


def declared_class(
    registry: ModuleRegistry, type_name: str
) -> Optional[Type[Module]]:
    """The class registered under ``type_name``; None if there is none."""
    return registry.resolve(type_name) if type_name in registry else None


def _default_registry(registry: Optional[ModuleRegistry]) -> ModuleRegistry:
    if registry is None:
        from ..modules import standard_registry

        registry = standard_registry()
    return registry


class _Analyzer:
    def __init__(
        self,
        specs: Sequence[InstanceSpec],
        registry: ModuleRegistry,
        file: str,
    ) -> None:
        self.specs = list(specs)
        self.registry = registry
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

    def declared(self, spec: InstanceSpec) -> Optional[Type[Module]]:
        return declared_class(self.registry, spec.module_type)

    # -- passes -------------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        for spec in self.specs:
            module_class = self.declared(spec)
            if module_class is None:
                self.emit(
                    "FPT001",
                    f"unknown module type '{spec.module_type}' "
                    f"(known: {sorted(self.registry)})",
                    line=spec.header_line,
                    instance=spec.instance_id,
                )
                self.outputs[spec.instance_id] = None
                continue
            self.outputs[spec.instance_id] = module_class.outputs_for(spec.params)
            # The check fpt-core makes before any init(), as diagnostics.
            for problem in check_params(module_class, spec.params):
                self.emit(
                    problem.code,
                    problem.message,
                    line=spec.param_line(problem.param),
                    instance=spec.instance_id,
                )
        for spec in self.specs:
            self.check_wiring(spec, self.declared(spec))
        self.check_cycles()
        self.check_reachability()
        for spec in self.specs:
            module_class = self.declared(spec)
            if module_class is not None:
                self.check_scheduling(spec, module_class)
        return self.diagnostics

    # -- wiring -------------------------------------------------------------

    def check_wiring(
        self, spec: InstanceSpec, module_class: Optional[Type[Module]]
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
        if module_class is None:
            return

        ports = module_class.ports
        if ports == ():
            if per_port:
                self.emit(
                    "FPT011",
                    f"[{spec.module_type}] is a data source and accepts no "
                    f"inputs, but {sorted(per_port)} are wired",
                    line=spec.inputs[0].line if spec.inputs else spec.header_line,
                    instance=spec.instance_id,
                )
            return
        if ports is None:
            if module_class.requires_inputs and total == 0:
                self.emit(
                    "FPT011",
                    f"[{spec.module_type}] requires at least one wired "
                    "input but has none",
                    line=spec.header_line,
                    instance=spec.instance_id,
                )
            return
        by_name = {port.name: port for port in ports}
        for name, count in per_port.items():
            port = by_name.get(name)
            if port is None:
                self.emit(
                    "FPT011",
                    f"[{spec.module_type}] has no input port '{name}' "
                    f"(ports: {sorted(by_name)})",
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
        for port in ports:
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
            module_class = self.declared(spec)
            if module_class is None:
                # Unknown type: assume it consumes usefully; its own
                # diagnostics already cover it.
                sinks.add(spec.instance_id)
            elif module_class.sink or self.outputs.get(spec.instance_id) == []:
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
        self, spec: InstanceSpec, module_class: Type[Module]
    ) -> None:
        total = self.connection_counts.get(spec.instance_id, 0)
        trigger = module_class.trigger
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
        min_peers = module_class.min_peers
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
    file: str = "<config>",
) -> List[Diagnostic]:
    """Analyze pre-parsed instance specs (no syntax layer, no noqa)."""
    registry = _default_registry(registry)
    return sort_diagnostics(_Analyzer(specs, registry, file).run())


def analyze_config(
    text: str,
    registry: Optional[ModuleRegistry] = None,
    file: str = "<config>",
    noqa: bool = True,
) -> List[Diagnostic]:
    """Analyze configuration-file text; returns every diagnostic found.

    ``registry`` (default: the standard registry) supplies the module
    classes whose declarations the config is checked against.  ``# fpt:
    noqa`` markers in ``text`` suppress diagnostics on their line unless
    ``noqa=False``.
    """
    registry = _default_registry(registry)
    errors: List[ConfigError] = []
    specs = parse_config(text, collect=errors)
    diagnostics = _parse_error_diagnostics(errors, file)
    diagnostics.extend(_Analyzer(specs, registry, file).run())
    diagnostics.extend(marker_errors(text, file))
    if noqa:
        diagnostics = apply_noqa(diagnostics, text)
    return sort_diagnostics(diagnostics)
