"""The one check of a configuration against its modules' declarations.

:func:`check_specs` reads parsed instance specs and the declarations of
their registered classes (:mod:`repro.core.declaration`) *without
instantiating a single module*, and returns every problem under its
stable ``FPT0xx`` code.  Two readers use it: fpt-core's DAG builder
raises the first error before any ``init()`` runs, and ``repro lint``
reports the whole list.

Checks, in evaluation order:

* unknown module types (FPT001) and duplicate ids (FPT002);
* parameters: unknown (FPT007), missing required (FPT010), bad type
  (FPT008), out of range or failing a cross-param rule (FPT009) -- the
  problems of :func:`~repro.core.declaration.check_params`;
* wiring: unknown upstream instance (FPT003), nonexistent output
  (FPT004), port violations -- unknown port, missing required port,
  multiplicity, inputs on a source (FPT011);
* graph: cycles including self-loops (FPT005), instances that cannot
  reach any sink (FPT006, the one warning);
* scheduling: trigger thresholds no wiring can ever satisfy (FPT012),
  peer-comparison groups below the paper's 3-node minimum (FPT013).

A class with no ``output_names`` (``knnfleet``, ``ibuffer``) names its
outputs only in ``init()``: wiring to it is taken on trust here, and the
builder checks it once the upstream is initialized.
"""

from __future__ import annotations

from typing import Collection, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Type

from .config import InputSpec, InstanceSpec
from .declaration import check_params
from .errors import ConfigError
from .module import Module
from .registry import ModuleRegistry

#: Codes that report without refusing: a dead instance runs harmlessly.
WARNING_CODES = frozenset({"FPT006"})


class Problem(NamedTuple):
    """One way a config breaks its modules' declarations."""

    code: str
    message: str
    instance: str
    #: 1-based config line (0 for specs built in code) and its text.
    line: int
    line_text: str

    @property
    def is_error(self) -> bool:
        return self.code not in WARNING_CODES

    def error(self) -> ConfigError:
        """This problem as the ``ConfigError`` the builder raises."""
        return ConfigError(
            f"instance '{self.instance}': {self.message}",
            line_no=self.line or None,
            line_text=self.line_text,
            code=self.code,
        )


def _header(spec: InstanceSpec) -> Tuple[int, str]:
    return spec.header_line, f"[{spec.module_type}]"


def _param(spec: InstanceSpec, name: str) -> Tuple[int, str]:
    line = spec.param_lines.get(name)
    return (line, f"{name} = {spec.params[name]}") if line else _header(spec)


def _input(input_spec: InputSpec) -> Tuple[int, str]:
    return input_spec.line, input_spec.render()


def missing_output(
    target: str, input_spec: InputSpec, outputs: Collection[str]
) -> Optional[str]:
    """The FPT004 message when ``input_spec`` names an output of
    ``target`` (a ``[type]`` label) that ``outputs`` lacks, else None."""
    if input_spec.output_name is None:
        if outputs:
            return None
        return (
            f"'@{input_spec.instance_id}' wires all outputs of {target}, "
            "but it declared no outputs"
        )
    if input_spec.output_name in outputs:
        return None
    return (
        f"'{input_spec.instance_id}.{input_spec.output_name}' does not "
        f"exist (outputs of {target}: {sorted(outputs)})"
    )


class _Check:
    def __init__(
        self,
        specs: Sequence[InstanceSpec],
        registry: ModuleRegistry,
        existing,
    ) -> None:
        self.problems: List[Problem] = []
        #: instance id -> module type, for the new specs and ``existing``.
        self.types: Dict[str, str] = {}
        #: instance id -> output names (None = only ``init()`` knows).
        self.outputs: Dict[str, Optional[List[str]]] = {}
        if existing is not None:
            for instance_id, module in existing.instances.items():
                self.types[instance_id] = module.type_name
                self.outputs[instance_id] = list(existing.contexts[instance_id].outputs)
        self.specs: List[InstanceSpec] = []
        self.classes: Dict[str, Optional[Type[Module]]] = {}
        for spec in specs:
            if spec.instance_id in self.types:
                self.emit("FPT002", f"id '{spec.instance_id}' already exists",
                          spec, _header(spec))
                continue
            self.types[spec.instance_id] = spec.module_type
            self.specs.append(spec)
            try:
                self.classes[spec.instance_id] = registry.resolve(spec.module_type)
            except ConfigError as error:
                self.classes[spec.instance_id] = None
                self.emit("FPT001", str(error), spec, _header(spec))
        #: instance id -> total wired upstream connections.
        self.connection_counts: Dict[str, int] = {}
        #: data-flow edges between new specs as (upstream id, consumer id).
        self.edges: List[Tuple[str, str]] = []

    def emit(self, code: str, message: str, spec: InstanceSpec, at: Tuple[int, str]) -> None:
        self.problems.append(Problem(code, message, spec.instance_id, *at))

    def run(self) -> List[Problem]:
        for spec in self.specs:
            module_class = self.classes[spec.instance_id]
            self.outputs[spec.instance_id] = (
                None if module_class is None else module_class.outputs_for(spec.params)
            )
            if module_class is not None:
                for problem in check_params(module_class, spec.params):
                    self.emit(problem.code, problem.message, spec,
                              _param(spec, problem.param))
        for spec in self.specs:
            self.check_wiring(spec, self.classes[spec.instance_id])
        self.check_cycles()
        self.check_reachability()
        for spec in self.specs:
            module_class = self.classes[spec.instance_id]
            if module_class is not None:
                self.check_scheduling(spec, module_class)
        return self.problems

    # -- wiring -------------------------------------------------------------

    def check_wiring(self, spec: InstanceSpec, module_class: Optional[Type[Module]]) -> None:
        per_port: Dict[str, int] = {}
        for input_spec in spec.inputs:
            target = input_spec.instance_id
            if target == spec.instance_id:
                # Self-loops surface as the tightest possible cycle.
                self.emit("FPT005", f"input '{input_spec.input_name}' wires "
                          "the instance to its own outputs", spec, _input(input_spec))
                continue
            if target not in self.types:
                self.emit("FPT003", f"input '{input_spec.input_name}' references "
                          f"unknown instance '{target}'", spec, _input(input_spec))
                continue
            upstream_outputs = self.outputs.get(target)
            if upstream_outputs is not None:
                message = missing_output(
                    f"[{self.types[target]}]", input_spec, upstream_outputs
                )
                if message is not None:
                    self.emit("FPT004", message, spec, _input(input_spec))
                    continue
            connections = (
                len(upstream_outputs)
                if input_spec.output_name is None and upstream_outputs is not None
                else 1
            )
            per_port[input_spec.input_name] = (
                per_port.get(input_spec.input_name, 0) + connections
            )
            if target in self.classes:
                self.edges.append((target, spec.instance_id))

        self.connection_counts[spec.instance_id] = sum(per_port.values())
        if module_class is not None:
            self.check_ports(spec, module_class, per_port)

    def check_ports(
        self, spec: InstanceSpec, module_class: Type[Module], per_port: Dict[str, int]
    ) -> None:
        ports = module_class.ports
        if ports == ():
            if per_port:
                self.emit(
                    "FPT011",
                    f"[{spec.module_type}] is a data source and accepts no "
                    f"inputs, but {sorted(per_port)} are wired",
                    spec, _input(spec.inputs[0]),
                )
            return
        if ports is None:
            if module_class.requires_inputs and not per_port:
                self.emit("FPT011", f"[{spec.module_type}] requires at least one "
                          "wired input but has none", spec, _header(spec))
            return
        by_name = {port.name: port for port in ports}
        for name, count in per_port.items():
            at = _input(next(i for i in spec.inputs if i.input_name == name))
            port = by_name.get(name)
            if port is None:
                self.emit("FPT011", f"[{spec.module_type}] has no input port "
                          f"'{name}' (ports: {sorted(by_name)})", spec, at)
            elif port.max_connections is not None and count > port.max_connections:
                self.emit("FPT011", f"input port '{name}' takes at most "
                          f"{port.max_connections} connection(s), {count} wired",
                          spec, at)
        for port in ports:
            if port.required and port.name not in per_port:
                self.emit("FPT011", f"required input port '{port.name}' is not "
                          "wired", spec, _header(spec))

    # -- graph --------------------------------------------------------------

    def check_cycles(self) -> None:
        """Kahn's algorithm; whatever cannot be peeled off is cyclic."""
        indegree: Dict[str, int] = {spec.instance_id: 0 for spec in self.specs}
        adjacency: Dict[str, List[str]] = {i: [] for i in indegree}
        for src, dst in self.edges:
            indegree[dst] += 1
            adjacency[src].append(dst)
        queue = [i for i, d in indegree.items() if d == 0]
        while queue:
            for successor in adjacency[queue.pop()]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    queue.append(successor)
        cyclic = sorted(i for i, d in indegree.items() if d > 0)
        if cyclic:
            first = next(s for s in self.specs if s.instance_id == cyclic[0])
            self.emit("FPT005", f"wiring cycle through instances {cyclic}",
                      first, _header(first))

    def check_reachability(self) -> None:
        """Warn for instances whose data can never reach a sink."""
        live: Set[str] = set()
        for spec in self.specs:
            module_class = self.classes[spec.instance_id]
            # An unknown type is assumed to consume usefully; its own
            # problem already covers it.
            if (module_class is None or module_class.sink
                    or self.outputs.get(spec.instance_id) == []):
                live.add(spec.instance_id)
        upstreams: Dict[str, List[str]] = {}
        for src, dst in self.edges:
            upstreams.setdefault(dst, []).append(src)
        frontier = list(live)
        while frontier:
            for upstream in upstreams.get(frontier.pop(), ()):
                if upstream not in live:
                    live.add(upstream)
                    frontier.append(upstream)
        for spec in self.specs:
            if spec.instance_id not in live:
                self.emit("FPT006", f"instance '{spec.instance_id}' cannot reach "
                          "any sink; its outputs are never consumed",
                          spec, _header(spec))

    # -- scheduling ---------------------------------------------------------

    def check_scheduling(self, spec: InstanceSpec, module_class: Type[Module]) -> None:
        total = self.connection_counts[spec.instance_id]
        trigger = module_class.trigger
        if trigger is not None and trigger.kind == "fixed" and trigger.updates > total:
            self.emit(
                "FPT012",
                f"trigger threshold {trigger.updates} exceeds the {total} wired "
                "connection(s); the instance would never run",
                spec, _header(spec),
            )
        min_peers = module_class.min_peers
        if min_peers is not None and total < min_peers:
            self.emit(
                "FPT013",
                f"peer comparison needs at least {min_peers} peers, got "
                f"{total} wired connection(s)",
                spec, _header(spec),
            )


def check_specs(
    specs: Sequence[InstanceSpec], registry: ModuleRegistry, existing=None
) -> List[Problem]:
    """Every problem of ``specs`` against their registered classes'
    declarations, in evaluation order; nothing is instantiated.

    ``existing``, a built :class:`~repro.core.dag.Dag`, is what the
    specs join at run time: its ids are taken, and its instances' actual
    outputs are there to be wired.
    """
    return _Check(specs, registry, existing).run()


__all__ = ["Problem", "WARNING_CODES", "check_specs", "missing_output"]
