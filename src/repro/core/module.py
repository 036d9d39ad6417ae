"""The fpt-core plug-in API.

Every data-collection and analysis module implements the same two-method
contract the paper describes in section 3.2:

* ``init()`` is called once when the instance becomes a DAG vertex.  The
  module reads its configuration parameters and binds its inputs (both
  already checked against its class's declaration, see
  :mod:`repro.core.check`), creates its outputs, and registers
  scheduling hooks (periodic execution for pollers, input-triggered
  execution for analyses).
* ``run(reason)`` is called by the scheduler, with ``reason`` saying why
  (a periodic tick, fresh input data, or a manual invocation).

Modules interact with the core exclusively through their
:class:`ModuleContext`, which carries the instance id, the parsed
parameters, the wired input groups, and factory/scheduling hooks.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional, Tuple

from ..telemetry import NULL_TELEMETRY, Telemetry
from .channel import InputGroup, Origin, Output
from .clock import Clock
from .declaration import InputPortSpec, ParamSpec, TriggerSpec, param_value
from .errors import ConfigError, ModuleError


class RunReason(enum.Enum):
    """Why the scheduler invoked a module's ``run()``."""

    PERIODIC = "periodic"
    INPUTS = "inputs"
    MANUAL = "manual"


class ModuleContext:
    """Everything a module instance may ask of the core.

    The context is constructed by the DAG builder; the two callables are
    installed by the core before ``init()`` runs:

    * ``_schedule_periodic(instance_id, interval, phase)``
    * ``_set_trigger(instance_id, updates)``
    """

    def __init__(
        self,
        instance_id: str,
        params: Mapping[str, str],
        clock: Clock,
        services: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.instance_id = instance_id
        self.params: Dict[str, str] = dict(params)
        #: The module class's declared params; :class:`Module` sets it.
        self.declared: Tuple[ParamSpec, ...] = ()
        self.clock = clock
        #: The core's self-instrumentation facade; replaced by the real
        #: :class:`~repro.telemetry.Telemetry` when the owning core has
        #: telemetry enabled.  Modules guard with ``telemetry.enabled``.
        self.telemetry: Telemetry = NULL_TELEMETRY
        self.services: Dict[str, Any] = dict(services) if services else {}
        self.inputs: Dict[str, InputGroup] = {}
        self.outputs: Dict[str, Output] = {}
        self._schedule_periodic: Optional[Callable[[str, float, float], None]] = None
        self._set_trigger: Optional[Callable[[str, int], None]] = None

    # -- services ------------------------------------------------------------

    def service(self, name: str) -> Any:
        """Look up a runtime service object registered with the core.

        Services carry non-textual dependencies (a simulator handle, an
        RPC client factory) from the embedding application into modules,
        keeping the configuration file purely declarative.
        """
        try:
            return self.services[name]
        except KeyError:
            raise ConfigError(
                f"instance '{self.instance_id}' requires service '{name}', "
                f"which was not registered (available: {sorted(self.services)})"
            ) from None

    # -- outputs -----------------------------------------------------------

    def create_output(self, name: str, origin: Optional[Origin] = None) -> Output:
        """Declare a new named output for this instance (init-time only)."""
        if name in self.outputs:
            raise ModuleError(
                f"instance '{self.instance_id}' declared output '{name}' twice"
            )
        output = Output(owner_id=self.instance_id, name=name, origin=origin)
        self.outputs[name] = output
        return output

    # -- inputs ------------------------------------------------------------

    def input(self, name: str) -> InputGroup:
        """Return the input group wired under ``name``.

        Raises :class:`ModuleError` if the configuration did not wire the
        input -- modules call this from ``init()`` to verify their wiring.
        """
        try:
            return self.inputs[name]
        except KeyError:
            raise ModuleError(
                f"instance '{self.instance_id}' requires input '{name}', "
                f"which is not wired (wired inputs: {sorted(self.inputs)})"
            ) from None

    def connection_count(self) -> int:
        """Total number of upstream connections across all input groups."""
        return sum(len(group) for group in self.inputs.values())

    # -- scheduling --------------------------------------------------------

    def schedule_every(self, interval: float, phase: float = 0.0) -> None:
        """Request periodic execution every ``interval`` seconds, the
        first ``phase`` seconds in."""
        if interval <= 0:
            raise ModuleError(
                f"instance '{self.instance_id}' requested a non-positive "
                f"scheduling interval: {interval}"
            )
        if phase < 0:
            raise ModuleError(
                f"instance '{self.instance_id}' requested a negative "
                f"scheduling phase: {phase}"
            )
        if self._schedule_periodic is None:
            raise ModuleError("scheduling hooks are not installed yet")
        self._schedule_periodic(self.instance_id, float(interval), float(phase))

    def trigger_after_updates(self, updates: int) -> None:
        """Request input-triggered execution after ``updates`` input writes.

        By default the core runs an instance once every one of its
        connections has received a new sample; this overrides that count.
        """
        if updates <= 0:
            raise ModuleError(
                f"instance '{self.instance_id}' requested a non-positive "
                f"trigger count: {updates}"
            )
        if self._set_trigger is None:
            raise ModuleError("scheduling hooks are not installed yet")
        self._set_trigger(self.instance_id, int(updates))

    # -- parameters ---------------------------------------------------------

    def _param(self, name: str, type_name: str) -> Any:
        """``name``'s value, typed and defaulted by the declaration."""
        spec = next((p for p in self.declared if p.name == name), None)
        if spec is None or spec.type != type_name:
            raise ModuleError(
                f"instance '{self.instance_id}' reads parameter '{name}' as "
                f"{type_name}, but its class declares "
                + (f"it {spec.type}" if spec else "no such parameter")
            )
        try:
            value = param_value(self.declared, self.params, name)
        except ValueError:
            raise ConfigError(
                f"instance '{self.instance_id}': parameter '{name}' must "
                f"be {type_name}, got {self.params[name]!r}"
            ) from None
        if value is None and spec.required:
            raise ConfigError(
                f"instance '{self.instance_id}' is missing required "
                f"parameter '{name}'"
            )
        return value

    def param_str(self, name: str) -> Optional[str]:
        return self._param(name, "str")

    def param_int(self, name: str) -> Optional[int]:
        return self._param(name, "int")

    def param_float(self, name: str) -> Optional[float]:
        return self._param(name, "float")

    def param_bool(self, name: str) -> Optional[bool]:
        return self._param(name, "bool")

    def param_list(self, name: str) -> Optional[list]:
        """A comma-separated parameter as a list of stripped strings."""
        return self._param(name, "list")


class Module(abc.ABC):
    """Base class for all fpt-core modules (data collection and analysis).

    Subclasses set :attr:`type_name` (the name used in configuration-file
    section headers), declare their interface in the class attributes
    below (:mod:`repro.core.declaration`), and implement :meth:`init`
    and :meth:`run`.  fpt-core checks every instance against the
    declaration before ``init()``; ``repro lint`` reports the same check.
    """

    #: Name used in ``[section]`` headers of the configuration file.
    type_name: ClassVar[str] = ""
    #: Every parameter ``init()`` reads; any other is a config error.
    params: ClassVar[Tuple[ParamSpec, ...]] = ()
    #: Named input ports; ``()`` for a data source that takes no inputs;
    #: None for inputs under any name.
    ports: ClassVar[Optional[Tuple[InputPortSpec, ...]]] = None
    #: At least one input must be wired (with ``ports = None``).
    requires_inputs: ClassVar[bool] = False
    #: Output names; None when only ``init()`` knows them (see
    #: :meth:`outputs_for`).
    output_names: ClassVar[Optional[Tuple[str, ...]]] = None
    trigger: ClassVar[Optional[TriggerSpec]] = None
    #: Peer analyses: the fewest wired connections they can compare.
    min_peers: ClassVar[Optional[int]] = None
    #: A terminal consumer (what the dead-instance lint walks back from).
    sink: ClassVar[bool] = False
    #: Cross-param rule: the resolved param values in, ``(param,
    #: message)`` pairs out; wrap it in ``staticmethod``.
    param_check: ClassVar[Optional[Callable[[Dict[str, Any]], List[Tuple[str, str]]]]] = None

    @classmethod
    def outputs_for(cls, params: Mapping[str, str]) -> Optional[List[str]]:
        """The outputs an instance with these raw params will create;
        None if unknowable.  Override when they depend on params."""
        return None if cls.output_names is None else list(cls.output_names)

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        ctx.declared = self.params

    @property
    def instance_id(self) -> str:
        return self.ctx.instance_id

    def init(self) -> None:
        """Per-instance initialization; default is a no-op."""

    @abc.abstractmethod
    def run(self, reason: RunReason) -> None:
        """Perform one unit of work; called by the scheduler."""

    def close(self) -> None:
        """Release external resources (sockets, files); default no-op."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.instance_id!r}>"
