"""The fpt-core facade: configuration in, running diagnosis DAG out.

:class:`FptCore` ties the pieces together -- it parses a configuration
(or accepts pre-parsed specs), builds the module DAG against a registry,
installs scheduling hooks, and exposes the run loop.  A specific
configuration of the fpt-core *is* a specific online fingerpointing tool
(paper section 3.1): the same core can be wired as a black-box
fingerpointer, a white-box one, a hybrid, or a pure data logger.

Typical use::

    from repro.core import FptCore, SimClock
    from repro.modules import standard_registry

    core = FptCore.from_config(config_text, standard_registry(), SimClock())
    core.run_for(600.0)          # simulated seconds
    core.close()
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..telemetry import NULL_TELEMETRY, Telemetry
from .channel import DEFAULT_QUEUE_CAPACITY
from .clock import Clock, SimClock
from .config import InstanceSpec, parse_config
from .dag import Dag, Edge, build_dag, detach_instance, extend_dag
from .module import Module, ModuleContext
from .registry import ModuleRegistry
from .scheduler import Scheduler


class FptCore:
    """A constructed, runnable fingerpointing DAG."""

    def __init__(
        self,
        specs: Sequence[InstanceSpec],
        registry: ModuleRegistry,
        clock: Optional[Clock] = None,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        services=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        #: Self-instrumentation facade shared by the scheduler, every
        #: module context and (through services) the RPC channels.  The
        #: disabled NULL_TELEMETRY default keeps the hot path at a
        #: single attribute check.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.scheduler = Scheduler(self.clock, telemetry=self.telemetry)
        self._registry = registry
        self._queue_capacity = queue_capacity
        self._services = services

        def install_hooks(ctx: ModuleContext) -> None:
            ctx._schedule_periodic = self.scheduler.schedule_periodic
            ctx._set_trigger = self.scheduler.set_trigger
            ctx.telemetry = self.telemetry

        self._install_hooks = install_hooks

        #: Optional :class:`repro.flightrec.FlightRecorder` tapping every
        #: output; set by :meth:`set_flight_recorder` (or by the
        #: recorder's own ``attach``).  ``None`` keeps the write hot path
        #: at the existing ``on_write`` null check.
        self.flight_recorder = None
        #: Called with the context of every instance attached at run
        #: time (:meth:`attach`): observers that tapped the core's
        #: outputs when they attached (flight recorder, observatory)
        #: register here so late instances are tapped like the rest.
        self.context_observers: List[Callable[[ModuleContext], None]] = []

        self.dag: Dag = build_dag(
            specs,
            registry,
            self.clock,
            install_hooks=install_hooks,
            queue_capacity=queue_capacity,
            services=services,
        )
        for instance_id in self.dag.topological_order():
            self.scheduler.add_instance(self.dag.instances[instance_id])
        for ctx in self.dag.contexts.values():
            for output in ctx.outputs.values():
                self.scheduler.attach_output(output)
        self._closed = False

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_config(
        cls,
        text: str,
        registry: ModuleRegistry,
        clock: Optional[Clock] = None,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        services=None,
        telemetry: Optional[Telemetry] = None,
    ) -> "FptCore":
        """Build a core from configuration-file text (paper section 3.4)."""
        return cls(
            parse_config(text), registry, clock, queue_capacity, services,
            telemetry,
        )

    # -- introspection --------------------------------------------------------

    def instance(self, instance_id: str) -> Module:
        return self.dag.instance(instance_id)

    @property
    def instances(self) -> List[str]:
        return sorted(self.dag.instances)

    @property
    def edges(self) -> List[Edge]:
        return list(self.dag.edges)

    def to_dot(self, annotate: bool = False) -> str:
        """Dot rendering; ``annotate=True`` adds telemetry run stats.

        Falls back to the scheduler's always-on run counters when
        telemetry is disabled (mean latency shows as 0 in that case).
        """
        if not annotate:
            return self.dag.to_dot()
        if self.telemetry.enabled:
            return self.dag.to_dot(run_stats=self.telemetry.run_stats())
        from ..telemetry import RunStats

        stats = {
            instance_id: RunStats(runs, 0.0, 0)
            for instance_id, runs in self.scheduler.runs_by_instance.items()
        }
        return self.dag.to_dot(run_stats=stats)

    # -- execution ------------------------------------------------------------

    def run_until(self, end_time: float) -> int:
        return self.scheduler.run_until(end_time)

    def run_for(self, duration: float) -> int:
        return self.scheduler.run_for(duration)

    def run_instance(self, instance_id: str) -> None:
        self.scheduler.run_manual(instance_id)

    # -- runtime reconfiguration (paper section 2.1) ---------------------------

    def attach(self, text_or_specs) -> List[str]:
        """Attach new module instances while the core is running.

        Accepts configuration-file text or pre-parsed specs.  New
        instances may consume outputs of existing instances; existing
        wiring is untouched.  Returns the ids of the attached instances.
        """
        specs = (
            parse_config(text_or_specs)
            if isinstance(text_or_specs, str)
            else list(text_or_specs)
        )
        added = extend_dag(
            self.dag,
            specs,
            self._registry,
            self.clock,
            install_hooks=self._install_hooks,
            queue_capacity=self._queue_capacity,
            services=self._services,
        )
        for instance_id in added:
            self.scheduler.add_instance(self.dag.instances[instance_id])
            for output in self.dag.contexts[instance_id].outputs.values():
                self.scheduler.attach_output(output)
            for observe in self.context_observers:
                observe(self.dag.contexts[instance_id])
        return added

    def set_flight_recorder(self, recorder) -> None:
        """Tap every current and future output with ``recorder``.

        Call after construction: the recorder adds its tap to every
        output's write hooks and registers itself as the
        ``flight_recorder`` service so alarm sinks can freeze incident
        bundles.  Instances attached later are tapped automatically.
        """
        recorder.attach(self)

    def detach(self, instance_id: str) -> None:
        """Detach a terminal instance (no downstream consumers) and
        close it.  Its upstream subscriptions are removed, so producers
        stop paying for data nobody reads."""
        module = detach_instance(self.dag, instance_id)
        self.scheduler.remove_instance(instance_id)
        module.close()

    def stop(self) -> None:
        self.scheduler.stop()

    def close(self) -> None:
        """Release module resources; idempotent."""
        if self._closed:
            return
        self._closed = True
        for module in self.dag.instances.values():
            module.close()

    def __enter__(self) -> "FptCore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
