"""The fpt-core plug-in API.

Every data-collection and analysis module implements the same two-method
contract the paper describes in section 3.2:

* ``init()`` is called once when the instance becomes a DAG vertex.  The
  module reads its configuration parameters, verifies its input wiring,
  creates its outputs, and registers scheduling hooks (periodic execution
  for pollers, input-triggered execution for analyses).
* ``run(reason)`` is called by the scheduler, with ``reason`` saying why
  (a periodic tick, fresh input data, or a manual invocation).

Modules interact with the core exclusively through their
:class:`ModuleContext`, which carries the instance id, the parsed
parameters, the wired input groups, and factory/scheduling hooks.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional

from ..telemetry import NULL_TELEMETRY, Telemetry
from .channel import InputGroup, Origin, Output
from .clock import Clock
from .errors import ConfigError, ModuleError


class RunReason(enum.Enum):
    """Why the scheduler invoked a module's ``run()``."""

    PERIODIC = "periodic"
    INPUTS = "inputs"
    MANUAL = "manual"


#: Sentinel distinguishing "no default supplied" from "default is None".
_REQUIRED = object()


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

    def require_no_inputs(self) -> None:
        """Assert that this instance was wired with no inputs at all."""
        if self.inputs:
            raise ModuleError(
                f"instance '{self.instance_id}' accepts no inputs but was "
                f"wired with {sorted(self.inputs)}"
            )

    def connection_count(self) -> int:
        """Total number of upstream connections across all input groups."""
        return sum(len(group) for group in self.inputs.values())

    # -- scheduling --------------------------------------------------------

    def schedule_every(self, interval: float, phase: float = 0.0) -> None:
        """Request periodic execution every ``interval`` seconds."""
        if interval <= 0:
            raise ModuleError(
                f"instance '{self.instance_id}' requested a non-positive "
                f"scheduling interval: {interval}"
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

    def _raw_param(self, name: str, default: Any) -> Any:
        if name in self.params:
            return self.params[name]
        if default is _REQUIRED:
            raise ConfigError(
                f"instance '{self.instance_id}' is missing required "
                f"parameter '{name}'"
            )
        return default

    def param_str(self, name: str, default: Any = _REQUIRED) -> str:
        value = self._raw_param(name, default)
        return value if isinstance(value, str) else value

    def param_int(self, name: str, default: Any = _REQUIRED) -> int:
        value = self._raw_param(name, default)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                raise ConfigError(
                    f"instance '{self.instance_id}': parameter '{name}' must "
                    f"be an integer, got {value!r}"
                ) from None
        return value

    def param_float(self, name: str, default: Any = _REQUIRED) -> float:
        value = self._raw_param(name, default)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise ConfigError(
                    f"instance '{self.instance_id}': parameter '{name}' must "
                    f"be a number, got {value!r}"
                ) from None
        return value

    def param_bool(self, name: str, default: Any = _REQUIRED) -> bool:
        value = self._raw_param(name, default)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ConfigError(
                f"instance '{self.instance_id}': parameter '{name}' must be "
                f"a boolean, got {value!r}"
            )
        return bool(value)

    def param_list(self, name: str, default: Any = _REQUIRED) -> list:
        """Parse a comma-separated parameter into a list of strings."""
        value = self._raw_param(name, default)
        if isinstance(value, str):
            return [item.strip() for item in value.split(",") if item.strip()]
        return list(value)


class Module(abc.ABC):
    """Base class for all fpt-core modules (data collection and analysis).

    Subclasses set :attr:`type_name` (the name used in configuration-file
    section headers) and implement :meth:`init` and :meth:`run`.
    """

    #: Name used in ``[section]`` headers of the configuration file.
    type_name: ClassVar[str] = ""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx

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
