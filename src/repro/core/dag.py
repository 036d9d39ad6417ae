"""DAG construction from parsed configuration.

Implements the four-step initialization the paper gives in section 3.3:

1. every module instance in the configuration becomes a vertex, once
   the configuration passes :func:`~repro.core.check.check_specs` (its
   first error is raised as a ``ConfigError``);
2. each instance is annotated with its number of unsatisfied inputs, and
   instances with no inputs enter the initialization queue;
3. dequeued instances are initialized -- their ``init()`` creates their
   outputs, and every newly created output may satisfy other instances'
   inputs, enqueueing them in turn;
4. the process repeats until all instances are initialized.  The check
   has ruled out cycles and missing instances, so every one is reached;
   an output only ``init()`` names is looked up as it is wired.

The same path attaches instances to a running DAG (paper section 2.1):
``build_dag(..., existing=dag)``, all or nothing.

The only deliberate departure from the paper is that we do not spawn one
thread per module: instances run on the deterministic scheduler in
:mod:`repro.core.scheduler` (see DESIGN.md, "Design choices").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from .channel import DEFAULT_QUEUE_CAPACITY, InputGroup
from .check import Problem, check_specs, missing_output
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


def _wire_inputs(dag: Dag, spec: InstanceSpec, queue_capacity: int) -> None:
    """Subscribe ``spec``'s inputs to the upstream outputs they name: the
    one place edges are made, and where an output only the upstream's
    ``init()`` named is looked up.  ``subscribe`` marks the output's
    trigger plan stale; the owner is set before the next write compiles it."""
    ctx = dag.contexts[spec.instance_id]
    for input_spec in spec.inputs:
        upstream_ctx = dag.contexts[input_spec.instance_id]
        message = missing_output(
            f"[{dag.instances[input_spec.instance_id].type_name}]",
            input_spec, upstream_ctx.outputs,
        )
        if message is not None:
            raise Problem(
                "FPT004", message, spec.instance_id, input_spec.line,
                input_spec.render(),
            ).error()
        group = ctx.inputs.setdefault(
            input_spec.input_name, InputGroup(input_spec.input_name)
        )
        if input_spec.output_name is None:
            outputs = list(upstream_ctx.outputs.values())
        else:
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


def _remove(dag: Dag, instance_ids: Sequence[str]) -> List[Module]:
    """Drop ``instance_ids`` from ``dag``: their upstream subscriptions,
    edges and contexts; returns the initialized modules among them."""
    for instance_id in instance_ids:
        ctx = dag.contexts.pop(instance_id, None)
        for group in ctx.inputs.values() if ctx is not None else ():
            for connection in group:
                connection.output.unsubscribe(connection)
    gone = set(instance_ids)
    dag.edges = [e for e in dag.edges if e.dst_instance not in gone]
    return [dag.instances.pop(i) for i in instance_ids if i in dag.instances]


def build_dag(
    specs: Sequence[InstanceSpec],
    registry: ModuleRegistry,
    clock: Clock,
    install_hooks=None,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    services=None,
    existing: Optional[Dag] = None,
) -> Dag:
    """Construct and initialize the module DAG from parsed ``specs``.

    ``install_hooks``, if given, is called as ``install_hooks(ctx)`` right
    before each instance's ``init()`` so the core can attach scheduling
    callbacks to the context.  With ``existing``, the new instances join
    that DAG and may wire to its outputs; existing instances are never
    rewired.  ``dag.instances`` keeps initialization order.  Any failure
    leaves ``existing`` as it was.
    """
    for problem in check_specs(specs, registry, existing):
        if problem.is_error:
            raise problem.error()
    dag = existing if existing is not None else Dag()
    new = {spec.instance_id: spec for spec in specs}

    try:
        # Step 1: a vertex (context + module object) per instance.
        modules: Dict[str, Module] = {}
        for spec in specs:
            ctx = ModuleContext(spec.instance_id, spec.params, clock, services)
            dag.contexts[spec.instance_id] = ctx
            modules[spec.instance_id] = registry.resolve(spec.module_type)(ctx)

        # Step 2: count unsatisfied new upstreams; queue the rest.
        waiting: Dict[str, set] = {
            instance_id: {i.instance_id for i in spec.inputs if i.instance_id in new}
            for instance_id, spec in new.items()
        }
        ready = deque(i for i, pending in waiting.items() if not pending)

        # Steps 3-4: initialize in waves, satisfying inputs as outputs appear.
        while ready:
            instance_id = ready.popleft()
            del waiting[instance_id]
            _wire_inputs(dag, new[instance_id], queue_capacity)
            if install_hooks is not None:
                install_hooks(dag.contexts[instance_id])
            modules[instance_id].init()
            dag.instances[instance_id] = modules[instance_id]
            for other_id, pending in waiting.items():
                if instance_id in pending:
                    pending.discard(instance_id)
                    if not pending:
                        ready.append(other_id)
    except Exception:
        for module in _remove(dag, list(new)):
            module.close()
        raise
    return dag


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
    return _remove(dag, [instance_id])[0]
