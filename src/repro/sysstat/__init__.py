"""sysstat substrate: simulated ``/proc`` plus a ``libsadc`` sampler.

The paper's black-box data source is the sysstat package's ``sadc``
collector reading ``/proc``.  Here the cluster simulator populates a
:class:`SimProcFS` per node and :class:`Sadc` turns successive snapshots
into the 64 node-level / 18 per-NIC / 19 per-process metrics the paper
reports (section 3.5).  :func:`node_sampler` is how collectors get the
node-level vector: per-node :class:`Sadc` for a dataclass procfs, a row
of the one-pass :class:`FleetSadc` for an array-backed one.
"""

from .metrics import (
    NIC_METRIC_COUNT,
    NIC_METRICS,
    NODE_METRIC_COUNT,
    NODE_METRIC_INDEX,
    NODE_METRICS,
    PROCESS_METRIC_COUNT,
    PROCESS_METRICS,
)
from .procfs import (
    CpuTicks,
    DiskCounters,
    KernelStat,
    KernelTables,
    LoadAvg,
    MemInfo,
    NicCounters,
    ProcessStat,
    SimProcFS,
    SockStat,
    TcpCounters,
    VmCounters,
)
from .fleet_sadc import FleetSadc
from .sadc import NodeSample, Sadc, node_sampler
from .syscalls import SYSCALL_CATEGORIES, SYSCALL_INDEX, SyscallTracer

__all__ = [
    "CpuTicks",
    "DiskCounters",
    "FleetSadc",
    "KernelStat",
    "KernelTables",
    "LoadAvg",
    "MemInfo",
    "NIC_METRIC_COUNT",
    "NIC_METRICS",
    "NODE_METRIC_COUNT",
    "NODE_METRIC_INDEX",
    "NODE_METRICS",
    "NicCounters",
    "NodeSample",
    "PROCESS_METRIC_COUNT",
    "PROCESS_METRICS",
    "ProcessStat",
    "SYSCALL_CATEGORIES",
    "SYSCALL_INDEX",
    "Sadc",
    "SimProcFS",
    "SyscallTracer",
    "SockStat",
    "TcpCounters",
    "VmCounters",
    "node_sampler",
]
