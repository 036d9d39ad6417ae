"""sysstat substrate: simulated ``/proc`` plus a ``libsadc`` sampler.

The paper's black-box data source is the sysstat package's ``sadc``
collector reading ``/proc``.  Here the cluster simulator keeps every
node's ``/proc`` counters (the :mod:`repro.sysstat.procfs` shape) in
fleet arrays, and the one-pass :class:`FleetSadc` turns successive counters
into the 64 node-level metrics the paper reports (section 3.5, with
the 18 per-NIC / 19 per-process catalogs alongside).  A collector gets
its node's sampler from ``procfs.sampler()``.
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
    SockStat,
    TcpCounters,
    VmCounters,
)
from .fleet_sadc import FleetSadc
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
    "PROCESS_METRIC_COUNT",
    "PROCESS_METRICS",
    "ProcessStat",
    "SYSCALL_CATEGORIES",
    "SYSCALL_INDEX",
    "SyscallTracer",
    "SockStat",
    "TcpCounters",
    "VmCounters",
]
