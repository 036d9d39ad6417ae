"""The standard ASDF module library.

Data collection: ``sadc`` (black-box /proc metrics), ``hadoop_log``
(white-box state vectors with cross-node synchronization).
Analysis: ``mavgvec``, ``knnfleet`` (one instance classifying the whole
fleet in batched numpy passes) and ``knn`` (the same class bound to one
input), ``analysis_bb``, ``analysis_wb``.
Plumbing/sinks: ``ibuffer``, ``print`` (which also feeds an attached
observatory), ``alarm_union``, ``csv_writer``.

:func:`standard_registry` returns a registry with all of them, ready to
be extended with user modules (the paper's pluggability requirement).
"""

from ..core.registry import ModuleRegistry
from .alarms import AlarmUnionModule, PrintModule
from .analysis_bb import BlackBoxAnalysisModule
from .analysis_wb import WhiteBoxAnalysisModule
from .csvio import CsvWriterModule
from .hadoop_log import HADOOP_LOG_CHANNEL_SERVICE, HadoopLogModule
from .ibuffer import IBufferModule
from .knn import KnnModule
from .knnfleet import KnnFleetModule
from .mavgvec import MavgVecModule
from .mitigate import MitigationModule
from .sadc import SADC_CHANNEL_SERVICE, SadcModule
from .threshold import ThresholdAlarmModule
from .strace import (
    STRACE_CHANNEL_SERVICE,
    StraceModule,
    SyscallAnomalyModule,
    js_divergence,
)

STANDARD_MODULES = (
    AlarmUnionModule,
    BlackBoxAnalysisModule,
    CsvWriterModule,
    HadoopLogModule,
    IBufferModule,
    KnnFleetModule,
    KnnModule,
    MavgVecModule,
    MitigationModule,
    PrintModule,
    SadcModule,
    StraceModule,
    SyscallAnomalyModule,
    ThresholdAlarmModule,
    WhiteBoxAnalysisModule,
)


def standard_registry() -> ModuleRegistry:
    """A fresh registry containing every standard module."""
    registry = ModuleRegistry()
    for module_class in STANDARD_MODULES:
        registry.register(module_class)
    return registry


__all__ = [
    "AlarmUnionModule",
    "BlackBoxAnalysisModule",
    "CsvWriterModule",
    "HADOOP_LOG_CHANNEL_SERVICE",
    "HadoopLogModule",
    "IBufferModule",
    "KnnFleetModule",
    "KnnModule",
    "MavgVecModule",
    "MitigationModule",
    "PrintModule",
    "SADC_CHANNEL_SERVICE",
    "STANDARD_MODULES",
    "STRACE_CHANNEL_SERVICE",
    "SadcModule",
    "StraceModule",
    "SyscallAnomalyModule",
    "ThresholdAlarmModule",
    "WhiteBoxAnalysisModule",
    "js_divergence",
    "standard_registry",
]
