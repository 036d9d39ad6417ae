"""fpt-core: the pluggable online fingerpointing framework (paper §3).

The core multiplexes data-collection modules into analysis modules along
a DAG described by a configuration file.  Public surface:

* :class:`FptCore` -- build and run a diagnosis DAG.
* :class:`Module`, :class:`ModuleContext`, :class:`RunReason` -- the
  plug-in API for writing new modules.
* :class:`ModuleRegistry` -- name -> module-class resolution.
* :func:`parse_config`, :func:`render_config` -- the configuration format.
* :class:`WallClock` / :class:`SimClock` -- online vs. simulated time.
* :class:`Origin`, :class:`Sample`, :class:`Output`, :class:`InputGroup`,
  :class:`Connection` -- the data-channel model.
"""

from .channel import (
    DEFAULT_QUEUE_CAPACITY,
    Connection,
    InputGroup,
    Origin,
    Output,
    Sample,
    WriteHookChain,
)
from .clock import Clock, SimClock, WallClock
from .config import InputSpec, InstanceSpec, parse_config, render_config
from .dag import Dag, Edge, build_dag
from .errors import ConfigError, FptError, ModuleError, SchedulerError
from .fptcore import FptCore
from .module import Module, ModuleContext, RunReason
from .registry import ModuleRegistry
from .scheduler import Scheduler

__all__ = [
    "DEFAULT_QUEUE_CAPACITY",
    "Clock",
    "ConfigError",
    "Connection",
    "Dag",
    "Edge",
    "FptCore",
    "FptError",
    "InputGroup",
    "InputSpec",
    "InstanceSpec",
    "Module",
    "ModuleContext",
    "ModuleError",
    "ModuleRegistry",
    "Origin",
    "Output",
    "RunReason",
    "Sample",
    "Scheduler",
    "SchedulerError",
    "SimClock",
    "WallClock",
    "WriteHookChain",
    "build_dag",
    "parse_config",
    "render_config",
]
