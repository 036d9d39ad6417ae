"""DAG construction from parsed configuration.

Implements the four-step initialization the paper gives in section 3.3:

1. every module instance in the configuration becomes a vertex;
2. each instance is annotated with its number of unsatisfied inputs, and
   instances with no inputs enter the initialization queue;
3. dequeued instances are initialized -- their ``init()`` creates their
   outputs, and every newly created output may satisfy other instances'
   inputs, enqueueing them in turn;
4. the process repeats until all instances are initialized.  Anything
   left over means a wiring cycle or a reference to a missing instance or
   output, and DAG construction fails with :class:`ConfigError`.

The only deliberate departure from the paper is that we do not spawn one
thread per module: instances run on the deterministic scheduler in
:mod:`repro.core.scheduler` (see DESIGN.md, "Design choices").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Type

from .channel import DEFAULT_QUEUE_CAPACITY, InputGroup
from .clock import Clock
from .config import InstanceSpec
from .errors import ConfigError
from .module import Module, ModuleContext
from .registry import ModuleRegistry


def _dot_escape(text: str) -> str:
    """Escape a string for use inside a double-quoted dot id or label."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass(frozen=True)
class Edge:
    """One resolved data-flow edge of the constructed DAG."""

    src_instance: str
    output_name: str
    dst_instance: str
    input_name: str


class Dag:
    """The constructed graph: initialized module instances plus edges."""

    def __init__(self) -> None:
        self.instances: Dict[str, Module] = {}
        self.contexts: Dict[str, ModuleContext] = {}
        self.edges: List[Edge] = []

    def instance(self, instance_id: str) -> Module:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise ConfigError(f"no such instance '{instance_id}'") from None

    def topological_order(self) -> List[str]:
        """Instance ids in a topological order of the data flow."""
        indegree = {instance_id: 0 for instance_id in self.instances}
        adjacency: Dict[str, List[str]] = {i: [] for i in self.instances}
        for edge in self.edges:
            indegree[edge.dst_instance] += 1
            adjacency[edge.src_instance].append(edge.dst_instance)
        queue = deque(sorted(i for i, d in indegree.items() if d == 0))
        order: List[str] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for successor in adjacency[node]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    queue.append(successor)
        return order

    def to_dot(self, run_stats: Optional[Mapping[str, object]] = None) -> str:
        """Render the DAG in Graphviz dot format (for visualization).

        ``run_stats``, if given, maps instance ids to objects exposing
        ``runs`` and ``mean_latency_s`` (e.g.
        :class:`repro.telemetry.RunStats`); matching vertices are
        annotated with their run count and mean run latency.
        """
        lines = ["digraph fpt_core {"]
        for instance_id, module in sorted(self.instances.items()):
            node = _dot_escape(instance_id)
            label = f"{node}\\n({_dot_escape(module.type_name)})"
            stats = run_stats.get(instance_id) if run_stats else None
            if stats is not None:
                label += (
                    f"\\n{stats.runs} runs, "
                    f"{stats.mean_latency_s * 1e3:.3f} ms mean"
                )
            lines.append(f'  "{node}" [label="{label}"];')
        for edge in self.edges:
            lines.append(
                f'  "{_dot_escape(edge.src_instance)}" -> '
                f'"{_dot_escape(edge.dst_instance)}" '
                f'[label="{_dot_escape(edge.output_name)} -> '
                f'{_dot_escape(edge.input_name)}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def _check_upstreams(specs: Sequence[InstanceSpec], known: Mapping[str, object]) -> None:
    """Before any work: every input names a ``known`` instance, not its own."""
    for spec in specs:
        for input_spec in spec.inputs:
            if input_spec.instance_id not in known:
                raise ConfigError(
                    f"instance '{spec.instance_id}' input "
                    f"'{input_spec.input_name}' references unknown instance "
                    f"'{input_spec.instance_id}'",
                    line_no=input_spec.line or None,
                    line_text=input_spec.render(),
                )
            if input_spec.instance_id == spec.instance_id:
                raise ConfigError(
                    f"instance '{spec.instance_id}' cannot consume its own "
                    f"outputs (input '{input_spec.input_name}')",
                    line_no=input_spec.line or None,
                    line_text=input_spec.render(),
                )


def _wire_inputs(dag: Dag, spec: InstanceSpec, queue_capacity: int) -> None:
    """Subscribe ``spec``'s inputs to the upstream outputs they name: the
    one place edges are made.  ``subscribe`` marks the output's trigger
    plan stale; the owner is set before the next write compiles it."""
    ctx = dag.contexts[spec.instance_id]
    for input_spec in spec.inputs:
        upstream_ctx = dag.contexts[input_spec.instance_id]
        group = ctx.inputs.setdefault(
            input_spec.input_name, InputGroup(input_spec.input_name)
        )
        if input_spec.output_name is None:
            outputs = list(upstream_ctx.outputs.values())
            if not outputs:
                raise ConfigError(
                    f"instance '{spec.instance_id}' wires "
                    f"'@{input_spec.instance_id}' but that instance "
                    "declared no outputs",
                    line_no=input_spec.line or None,
                    line_text=input_spec.render(),
                )
        else:
            if input_spec.output_name not in upstream_ctx.outputs:
                raise ConfigError(
                    f"instance '{spec.instance_id}' wires "
                    f"'{input_spec.instance_id}.{input_spec.output_name}' "
                    "but that output does not exist (available: "
                    f"{sorted(upstream_ctx.outputs)})",
                    line_no=input_spec.line or None,
                    line_text=input_spec.render(),
                )
            outputs = [upstream_ctx.outputs[input_spec.output_name]]
        for output in outputs:
            connection = output.subscribe(capacity=queue_capacity)
            connection.owner_instance = spec.instance_id
            group.connections.append(connection)
            dag.edges.append(
                Edge(
                    src_instance=input_spec.instance_id,
                    output_name=output.name,
                    dst_instance=spec.instance_id,
                    input_name=input_spec.input_name,
                )
            )


def build_dag(
    specs: Sequence[InstanceSpec],
    registry: ModuleRegistry,
    clock: Clock,
    install_hooks=None,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    services=None,
) -> Dag:
    """Construct and initialize the module DAG from parsed ``specs``.

    ``install_hooks``, if given, is called as ``install_hooks(ctx)`` right
    before each instance's ``init()`` so the core can attach scheduling
    callbacks to the context.
    """
    dag = Dag()
    spec_by_id: Dict[str, InstanceSpec] = {}
    for spec in specs:
        if spec.instance_id in spec_by_id:
            raise ConfigError(f"duplicate instance id '{spec.instance_id}'")
        spec_by_id[spec.instance_id] = spec

    _check_upstreams(specs, spec_by_id)

    # Step 1: a vertex (context + module object) per instance.
    modules: Dict[str, Module] = {}
    for spec in specs:
        module_class: Type[Module] = registry.resolve(spec.module_type)
        ctx = ModuleContext(spec.instance_id, spec.params, clock, services)
        modules[spec.instance_id] = module_class(ctx)
        dag.contexts[spec.instance_id] = ctx

    # Step 2: count unsatisfied upstream instances; queue the sources.
    waiting: Dict[str, set] = {
        spec.instance_id: {inp.instance_id for inp in spec.inputs}
        for spec in specs
    }
    ready = deque(
        spec.instance_id for spec in specs if not waiting[spec.instance_id]
    )
    initialized: set = set()

    # Steps 3-4: initialize in waves, satisfying inputs as outputs appear.
    while ready:
        instance_id = ready.popleft()
        spec = spec_by_id[instance_id]
        ctx = dag.contexts[instance_id]
        _wire_inputs(dag, spec, queue_capacity)
        if install_hooks is not None:
            install_hooks(ctx)
        module = modules[instance_id]
        module.init()
        initialized.add(instance_id)
        dag.instances[instance_id] = module
        for other_id, pending in waiting.items():
            if other_id in initialized or other_id in ready:
                continue
            pending.discard(instance_id)
            if not pending:
                ready.append(other_id)

    leftover = sorted(set(spec_by_id) - initialized)
    if leftover:
        first = spec_by_id[leftover[0]]
        raise ConfigError(
            "DAG construction failed; the following instances could not be "
            f"initialized (cycle or missing upstream): {leftover}",
            line_no=first.header_line or None,
            line_text=f"[{first.module_type}]",
        )
    return dag


def extend_dag(
    dag: Dag,
    specs: Sequence[InstanceSpec],
    registry: ModuleRegistry,
    clock: Clock,
    install_hooks=None,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    services=None,
) -> List[str]:
    """Attach new instances to an already-initialized DAG at runtime.

    The paper requires "the flexibility to attach or detach any data
    source ... or analysis module" (section 2.1).  New instances may
    wire their inputs to outputs of existing instances (or of each
    other); existing instances are never rewired.  Returns the ids of
    the instances added, in initialization order.
    """
    spec_by_id: Dict[str, InstanceSpec] = {}
    for spec in specs:
        if spec.instance_id in dag.instances or spec.instance_id in spec_by_id:
            raise ConfigError(
                f"instance id '{spec.instance_id}' already exists"
            )
        spec_by_id[spec.instance_id] = spec

    _check_upstreams(specs, {**dag.contexts, **spec_by_id})

    modules: Dict[str, Module] = {}
    for spec in specs:
        module_class: Type[Module] = registry.resolve(spec.module_type)
        ctx = ModuleContext(spec.instance_id, spec.params, clock, services)
        modules[spec.instance_id] = module_class(ctx)
        dag.contexts[spec.instance_id] = ctx

    waiting: Dict[str, set] = {
        spec.instance_id: {
            inp.instance_id
            for inp in spec.inputs
            if inp.instance_id in spec_by_id  # existing ones are satisfied
        }
        for spec in specs
    }
    ready = deque(
        spec.instance_id for spec in specs if not waiting[spec.instance_id]
    )
    initialized: set = set()
    added: List[str] = []

    while ready:
        instance_id = ready.popleft()
        spec = spec_by_id[instance_id]
        _wire_inputs(dag, spec, queue_capacity)
        if install_hooks is not None:
            install_hooks(dag.contexts[instance_id])
        modules[instance_id].init()
        initialized.add(instance_id)
        dag.instances[instance_id] = modules[instance_id]
        added.append(instance_id)
        for other_id, pending in waiting.items():
            if other_id in initialized or other_id in ready:
                continue
            pending.discard(instance_id)
            if not pending:
                ready.append(other_id)

    leftover = sorted(set(spec_by_id) - initialized)
    if leftover:
        for instance_id in leftover:
            dag.contexts.pop(instance_id, None)
        first = spec_by_id[leftover[0]]
        raise ConfigError(
            "DAG extension failed; the following instances could not be "
            f"initialized (cycle or missing upstream): {leftover}",
            line_no=first.header_line or None,
            line_text=f"[{first.module_type}]",
        )
    return added


def detach_instance(dag: Dag, instance_id: str) -> Module:
    """Remove a terminal instance from the DAG.

    Only instances with no downstream consumers may be detached (a
    producer mid-graph would leave dangling inputs).  The instance's
    connections are unsubscribed from their upstream outputs and its
    edges removed; the detached module is returned so the caller can
    ``close()`` it.
    """
    if instance_id not in dag.instances:
        raise ConfigError(f"no such instance '{instance_id}'")
    consumers = [e for e in dag.edges if e.src_instance == instance_id]
    if consumers:
        downstream = sorted({e.dst_instance for e in consumers})
        raise ConfigError(
            f"cannot detach '{instance_id}': instances {downstream} "
            "consume its outputs"
        )
    ctx = dag.contexts[instance_id]
    for group in ctx.inputs.values():
        for connection in group:
            connection.output.unsubscribe(connection)
    dag.edges = [e for e in dag.edges if e.dst_instance != instance_id]
    module = dag.instances.pop(instance_id)
    dag.contexts.pop(instance_id, None)
    return module
