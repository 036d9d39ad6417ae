"""A simulated cluster node: one row of the fleet's ``/proc`` arrays.

Each tick the cluster layer reports what happened on the node -- CPU time
consumed per process, disk bytes moved, network traffic, forks -- through
the ``account_*`` methods, which add into the
:class:`~repro.sim.vec.FleetState` tick accumulators.
:meth:`FleetState.end_tick_all` then folds every node's accumulators,
plus a small amount of seeded background-OS noise, into the ``/proc``
counters in one array pass, keeping every derived metric (context
switches, interrupts, page cache, load averages, TCP segments)
consistent with the primary activity.

:class:`ProcFS` exposes a node's row with the attribute surface of the
``/proc`` counter dataclasses (:mod:`repro.sysstat.procfs`) as thin
views over the fleet arrays, so fault hooks and tests read and write
live counters, and :meth:`ProcFS.sampler` joins the fleet's one-pass
``sadc`` (:mod:`repro.sysstat.fleet_sadc`).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..sysstat.procfs import (
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
from .resources import NodeSpec

if TYPE_CHECKING:
    from .vec import FleetState

#: Typical bytes per disk I/O request (used to derive tps from bytes).
DISK_IO_BYTES = 128.0 * 1024.0

#: Load-average exponential decay constants, seconds.
_LOAD_TAU = (60.0, 300.0, 900.0)


# -- array-backed /proc views -------------------------------------------------


def _field_property(key: str) -> property:
    def _get(self):
        return self._f.a[key][self._i]

    def _set(self, value):
        self._f.a[key][self._i] = value

    return property(_get, _set)


class _View:
    __slots__ = ("_f", "_i")

    def __init__(self, fleet: "FleetState", i: int) -> None:
        self._f = fleet
        self._i = i


def _make_view(name: str, prefix: str, cls: type, extra=None) -> type:
    ns = {
        f.name: _field_property(f"{prefix}_{f.name}")
        for f in dataclass_fields(cls)
    }
    ns["__slots__"] = ()
    if extra:
        ns.update(extra)
    return type(name, (_View,), ns)


def _cpu_total(self) -> float:
    return (
        self.user + self.nice + self.system + self.iowait
        + self.steal + self.idle + self.irq + self.softirq
    )


def _mem_used_kb(self) -> float:
    return max(0.0, self.total_kb - self.free_kb)


CpuView = _make_view("CpuView", "cpu", CpuTicks, {"total": _cpu_total})
DiskView = _make_view("DiskView", "disk", DiskCounters)
VmView = _make_view("VmView", "vm", VmCounters)
StatView = _make_view("StatView", "stat", KernelStat)
MemView = _make_view(
    "MemView", "mem", MemInfo, {"used_kb": property(_mem_used_kb)}
)
LoadAvgView = _make_view("LoadAvgView", "loadavg", LoadAvg)
SockStatView = _make_view("SockStatView", "sockstat", SockStat)
TcpView = _make_view("TcpView", "tcp", TcpCounters)
TablesView = _make_view("TablesView", "tables", KernelTables)
NicView = _make_view("NicView", "nic", NicCounters)


class ProcFS:
    """One node's ``/proc``, backed by its row of the fleet arrays.

    A simulated node has one interface, ``eth0``: the simulator folds
    all traffic into it.
    """

    def __init__(self, fleet: "FleetState", i: int, num_cpus: int) -> None:
        self._fleet = fleet
        self._i = i
        self.num_cpus = num_cpus
        self.cpu = CpuView(fleet, i)
        self.disk = DiskView(fleet, i)
        self.vm = VmView(fleet, i)
        self.stat = StatView(fleet, i)
        self.mem = MemView(fleet, i)
        self.loadavg = LoadAvgView(fleet, i)
        self.sockstat = SockStatView(fleet, i)
        self.tcp = TcpView(fleet, i)
        self.tables = TablesView(fleet, i)
        self._eth0 = NicView(fleet, i)
        self.processes: Dict[int, ProcessStat] = {}

    def nic(self, name: str = "eth0"):
        if name != "eth0":
            raise KeyError(f"a simulated node has one interface, eth0, not {name!r}")
        return self._eth0

    def process(self, pid: int, name: str = "") -> ProcessStat:
        proc = self.processes.get(pid)
        if proc is None:
            proc = ProcessStat(pid=pid, name=name)
            self.processes[pid] = proc
        self._fleet.proc_dirty.add(self._i)
        return proc

    def sampler(self):
        """This node's sampler over the fleet's one-pass ``sadc``."""
        return self._fleet.sadc.sampler(self._i)


class SimNode:
    """One node's spec, noise generator, process table and ``/proc``
    view; its accounting lands in the :class:`FleetState` arrays."""

    def __init__(
        self, name: str, spec: NodeSpec, seed: int, fleet: "FleetState", index: int
    ) -> None:
        self.name = name
        self.spec = spec
        #: Seeded background-noise stream, drawn in fleet blocks.
        self.rng = np.random.default_rng(seed)
        self._fleet = fleet
        self._i = index
        self.procfs = ProcFS(fleet, index, num_cpus=int(round(spec.cpu_cores)))
        #: pid -> (user s, sys s, read bytes, write bytes) booked this tick.
        self._per_proc: Dict[int, Tuple[float, float, float, float]] = {}
        fleet.register(self)

    # -- per-tick accounting (called by the cluster layer) ---------------------

    def account_cpu(self, pid: int, user_s: float, sys_s: float = 0.0) -> None:
        """Record granted CPU time (core-seconds) for process ``pid``."""
        f = self._fleet
        i = self._i
        f.acc_cpu_user[i] += max(0.0, user_s)
        f.acc_cpu_sys[i] += max(0.0, sys_s)
        u, s, r, w = self._per_proc.get(pid, (0.0, 0.0, 0.0, 0.0))
        self._per_proc[pid] = (u + max(0.0, user_s), s + max(0.0, sys_s), r, w)

    def note_cpu_demand(self, cores: float) -> None:
        """Record *demanded* CPU (pre-arbitration), for run-queue/load."""
        self._fleet.acc_cpu_demand[self._i] += max(0.0, cores)

    def account_disk(self, pid: int, read_bytes: float, write_bytes: float) -> None:
        f = self._fleet
        i = self._i
        f.acc_disk_read[i] += max(0.0, read_bytes)
        f.acc_disk_write[i] += max(0.0, write_bytes)
        self.book_process_io(pid, read_bytes, write_bytes)

    def book_process_io(self, pid: int, read_bytes: float, write_bytes: float) -> None:
        """Disk bytes of ``pid`` alone (arbitration books node totals)."""
        u, s, r, w = self._per_proc.get(pid, (0.0, 0.0, 0.0, 0.0))
        self._per_proc[pid] = (
            u, s, r + max(0.0, read_bytes), w + max(0.0, write_bytes)
        )

    def account_iowait(self, seconds: float) -> None:
        """Record time a process spent blocked on storage this tick."""
        f = self._fleet
        i = self._i
        f.acc_cpu_iowait[i] += max(0.0, seconds)
        f.acc_iowait_procs[i] += 1.0

    def account_net(
        self,
        tx_bytes: float = 0.0,
        rx_bytes: float = 0.0,
        tx_dropped: float = 0.0,
        rx_dropped: float = 0.0,
    ) -> None:
        f = self._fleet
        i = self._i
        f.acc_net_tx[i] += max(0.0, tx_bytes)
        f.acc_net_rx[i] += max(0.0, rx_bytes)
        f.acc_net_tx_drop[i] += max(0.0, tx_dropped)
        f.acc_net_rx_drop[i] += max(0.0, rx_dropped)
        if tx_bytes > 0 or rx_bytes > 0:
            f.acc_streams[i] += 1.0

    def account_forks(self, count: float) -> None:
        self._fleet.acc_forks[self._i] += max(0.0, count)

    # -- process table ---------------------------------------------------------

    def ensure_process(
        self,
        pid: int,
        name: str,
        rss_kb: float,
        vsz_kb: Optional[float] = None,
        threads: float = 1.0,
        fds: float = 16.0,
    ) -> None:
        proc = self.procfs.process(pid, name)
        proc.name = name
        proc.rss_kb = rss_kb
        proc.vsz_kb = vsz_kb if vsz_kb is not None else rss_kb * 1.6
        proc.threads = threads
        proc.fds = fds

    def remove_process(self, pid: int) -> None:
        self.procfs.processes.pop(pid, None)
        self._fleet.proc_dirty.add(self._i)
