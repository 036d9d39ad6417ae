"""Struct-of-arrays fleet state: the simulator core.

Advancing every node in a Python loop -- each
:meth:`repro.sim.node.SimNode.end_tick` performs a few hundred scalar
operations, and each daemon/heartbeat declares its demand through one
Python call per node per tick -- dominates the tick cost at fleet scale.
This module keeps *all* per-node simulator state in ``(N_nodes,)`` numpy
arrays and advances the whole fleet in one vectorized pass per tick:

- :class:`FleetState` owns one float64 array per ``/proc`` counter and
  per tick accumulator, plus the per-node load-average matrix;
- :class:`VecProcFS` / the generated view classes expose the exact
  ``SimProcFS`` attribute surface as thin views over the arrays, so
  fault hooks, tests and a per-node ``Sadc`` work unchanged, while
  :meth:`VecProcFS.sampler` joins the fleet's one-pass ``sadc``
  (:mod:`repro.sysstat.fleet_sadc`), which reads the arrays directly;
- :class:`VecSimNode` is a :class:`~repro.sim.node.SimNode` whose
  ``account_*`` methods write fleet arrays, so task attempts, external
  loads and fault hooks work unmodified;
- :class:`VecTickContext` collects CPU/network demand as an *ordered*
  stream of bulk blocks (all tasktracker daemons at once, all heartbeat
  transfers at once) and per-activity demand objects, then arbitrates
  with ``np.bincount`` totals instead of per-node Python grouping.

Bit parity with the per-node reference (``SimNode.end_tick`` and
``TickContext.arbitrate``, which this module extends and which the
reference cluster under ``tests/sim`` steps beside every
:class:`~repro.hadoop.cluster.HadoopCluster` tick) is a design
invariant, not a tolerance:
``np.bincount`` accumulates each bin's weights sequentially in input
order, so per-node demand totals see the same left-to-right float
addition order as :func:`repro.sim.resources.share_proportionally`, and
every derived expression in :meth:`FleetState.end_tick_all` mirrors the
scalar :meth:`SimNode.end_tick` term for term (``np.where`` plus guarded
``np.divide`` replace the data-dependent branches).  Both paths draw
background noise from the same per-node :class:`repro.sim.noise.TickNoise`
buffers, so the random streams are identical by construction.
"""

from __future__ import annotations

import copy
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sysstat.fleet_sadc import FleetSadc
from ..sysstat.procfs import (
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
from .engine import CpuDemand, TickContext
from .network import PACKET_BYTES, NetworkModel, Transfer
from .node import _LOAD_TAU, DISK_IO_BYTES, SimNode
from .noise import (
    GAMMA_SYS,
    GAMMA_USER,
    NORMAL_CTXT,
    NORMAL_INTR,
    NORMAL_PGFAULT,
    POISSON_FORKS,
    POISSON_MCAST,
    POISSON_PGMAJ,
)
from .resources import NodeSpec

#: (fleet attribute, array-key prefix, procfs dataclass) -- one counter
#: array per dataclass field, initialized to the dataclass default.
_PROC_GROUPS: Tuple[Tuple[str, type], ...] = (
    ("cpu", CpuTicks),
    ("disk", DiskCounters),
    ("vm", VmCounters),
    ("stat", KernelStat),
    ("mem", MemInfo),
    ("loadavg", LoadAvg),
    ("sockstat", SockStat),
    ("tcp", TcpCounters),
    ("tables", KernelTables),
    ("nic", NicCounters),
)

#: Per-tick accumulator arrays (the vector twins of SimNode._cpu_user &c).
_ACCUMULATORS = (
    "acc_cpu_user",
    "acc_cpu_sys",
    "acc_cpu_iowait",
    "acc_cpu_demand",
    "acc_disk_read",
    "acc_disk_write",
    "acc_net_tx",
    "acc_net_rx",
    "acc_net_tx_drop",
    "acc_net_rx_drop",
    "acc_forks",
    "acc_iowait_procs",
    "acc_streams",
)


class FleetState:
    """All per-node simulator state for ``N`` nodes, as numpy arrays."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names: List[str] = list(names)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate node names in fleet")
        n = len(self.names)
        self.n = n

        # /proc counter arrays, keyed "<group>_<field>".
        self.a: Dict[str, np.ndarray] = {}
        for prefix, cls in _PROC_GROUPS:
            proto = cls()
            for f in dataclass_fields(cls):
                self.a[f"{prefix}_{f.name}"] = np.full(
                    n, float(getattr(proto, f.name))
                )

        # Hardware spec arrays (filled as nodes register).
        self.cpu_cores = np.zeros(n)
        self.disk_read_bps = np.ones(n)
        self.disk_write_bps = np.ones(n)
        self.nic_bps = np.ones(n)
        self.base_mem_kb = np.full(n, 300.0 * 1024.0)

        # Load-average EMA state, one column per tau.
        self.loads = np.zeros((n, len(_LOAD_TAU)))

        # Tick accumulators.
        for name in _ACCUMULATORS:
            setattr(self, name, np.zeros(n))
        self._acc_arrays = [getattr(self, name) for name in _ACCUMULATORS]

        # Cached process-table aggregates (exact in-order re-sums of the
        # per-node tables, recomputed only for nodes whose table changed).
        self.proc_rss_kb = np.zeros(n)
        self.proc_vsz_kb = np.zeros(n)
        self.proc_count = np.zeros(n)
        self.proc_dirty = set(range(n))

        self.nodes: List[Optional["VecSimNode"]] = [None] * n

        #: Completed :meth:`end_tick_all` passes -- with the poll time,
        #: the validity key of the fleet ``sadc`` pass's cached matrix.
        self.ticks = 0
        #: The one-pass collector every node's sampler takes its row from.
        self.sadc = FleetSadc(self)

    def register(self, node: "VecSimNode") -> None:
        i = node._i
        self.nodes[i] = node
        spec = node.spec
        self.cpu_cores[i] = spec.cpu_cores
        self.disk_read_bps[i] = spec.disk_read_bytes_s
        self.disk_write_bps[i] = spec.disk_write_bytes_s
        self.nic_bps[i] = spec.nic_bytes_s
        self.a["mem_total_kb"][i] = spec.memory_mb * 1024.0
        self.a["mem_free_kb"][i] = spec.memory_mb * 1024.0
        self.a["nic_speed_mbps"][i] = spec.nic_mbit_s

    # -- tick lifecycle --------------------------------------------------------

    def begin_tick_all(self) -> None:
        for arr in self._acc_arrays:
            arr.fill(0.0)
        for node in self.nodes:
            if node is not None and node._per_proc:
                node._per_proc.clear()

    def _refresh_proc_aggregates(self) -> None:
        for i in self.proc_dirty:
            node = self.nodes[i]
            if node is None:
                continue
            procs = node.procfs.processes
            self.proc_rss_kb[i] = sum(p.rss_kb for p in procs.values())
            self.proc_vsz_kb[i] = sum(p.vsz_kb for p in procs.values())
            self.proc_count[i] = len(procs)
        self.proc_dirty.clear()

    def end_tick_all(self, dt: float) -> None:
        """Fold every node's tick into its counters in one array pass.

        Mirrors :meth:`repro.sim.node.SimNode.end_tick` expression for
        expression; any edit there must be replicated here (the parity
        tests compare the two paths byte for byte).
        """
        a = self.a
        n = self.n
        self._refresh_proc_aggregates()

        # Per-node background noise, from the same buffers the scalar
        # path reads (each node's own seeded generator).
        noise = np.empty((8, n))
        for i, node in enumerate(self.nodes):
            noise[:, i] = node.noise.draw(dt)

        capacity = self.cpu_cores * dt
        noise_user = noise[GAMMA_USER] * dt
        noise_sys = noise[GAMMA_SYS] * dt

        user = self.acc_cpu_user + noise_user
        system = self.acc_cpu_sys + noise_sys
        irq = np.minimum(
            0.01 * dt + 1e-9 * (self.acc_net_rx + self.acc_net_tx),
            capacity * 0.05,
        )
        softirq = irq * 0.6
        nice = np.minimum(0.0005 * dt, capacity * 0.01)
        available = capacity - irq - softirq - nice
        busy = user + system
        over = busy > available
        scale = np.ones(n)
        np.divide(available, busy, out=scale, where=over)
        user = np.where(over, user * scale, user)
        system = np.where(over, system * scale, system)
        busy = np.where(over, available, busy)
        iowait = np.minimum(self.acc_cpu_iowait, available - busy)
        idle = np.maximum(0.0, available - busy - iowait)

        a["cpu_user"] += user
        a["cpu_system"] += system
        a["cpu_iowait"] += iowait
        a["cpu_idle"] += idle
        a["cpu_irq"] += irq
        a["cpu_softirq"] += softirq
        a["cpu_nice"] += nice

        reads = self.acc_disk_read / DISK_IO_BYTES
        writes = self.acc_disk_write / DISK_IO_BYTES
        a["disk_reads_completed"] += reads
        a["disk_writes_completed"] += writes
        a["disk_sectors_read"] += self.acc_disk_read / 512.0
        a["disk_sectors_written"] += self.acc_disk_write / 512.0
        read_busy = self.acc_disk_read / self.disk_read_bps
        write_busy = self.acc_disk_write / self.disk_write_bps
        busy_frac = np.minimum(1.0, read_busy + write_busy)
        a["disk_io_time_ms"] += busy_frac * dt * 1000.0
        queue_depth = 1.0 + 3.0 * busy_frac + self.acc_iowait_procs
        a["disk_weighted_io_time_ms"] += busy_frac * dt * 1000.0 * queue_depth

        tx_pkts = (self.acc_net_tx + self.acc_net_tx_drop) / PACKET_BYTES
        rx_pkts = (self.acc_net_rx + self.acc_net_rx_drop) / PACKET_BYTES
        a["nic_tx_bytes"] += self.acc_net_tx
        a["nic_rx_bytes"] += self.acc_net_rx
        a["nic_tx_packets"] += tx_pkts
        a["nic_rx_packets"] += rx_pkts
        a["nic_tx_drop"] += self.acc_net_tx_drop / PACKET_BYTES
        a["nic_rx_drop"] += self.acc_net_rx_drop / PACKET_BYTES
        a["nic_tx_errs"] += self.acc_net_tx_drop / PACKET_BYTES * 0.1
        a["nic_rx_errs"] += self.acc_net_rx_drop / PACKET_BYTES * 0.1
        a["nic_multicast"] += noise[POISSON_MCAST]

        ios = reads + writes
        a["stat_ctxt"] += (
            800.0 * dt + 300.0 * busy + 0.5 * (tx_pkts + rx_pkts) + 2.0 * ios
            + noise[NORMAL_CTXT]
        )
        a["stat_intr"] += (
            250.0 * dt + tx_pkts + rx_pkts + ios + noise[NORMAL_INTR]
        )
        a["stat_processes"] += self.acc_forks + noise[POISSON_FORKS]
        a["tcp_in_segs"] += rx_pkts
        a["tcp_out_segs"] += tx_pkts
        a["tcp_active_opens"] += 0.2 * dt + 0.02 * self.acc_streams
        a["tcp_passive_opens"] += 0.2 * dt + 0.02 * self.acc_streams

        a["vm_pgpgin_kb"] += self.acc_disk_read / 1024.0
        a["vm_pgpgout_kb"] += self.acc_disk_write / 1024.0
        a["vm_pgfault"] += 50.0 * dt + 400.0 * busy + noise[NORMAL_PGFAULT]
        a["vm_pgmajfault"] += noise[POISSON_PGMAJ]
        a["vm_pgfree"] += (
            60.0 * dt + 0.3 * (self.acc_disk_read + self.acc_disk_write) / 4096.0
        )

        rss_total = self.proc_rss_kb
        a["mem_cached_kb"][:] = np.minimum(
            a["mem_total_kb"] * 0.5,
            a["mem_cached_kb"] * 0.999
            + (self.acc_disk_read + self.acc_disk_write) / 1024.0,
        )
        a["mem_buffers_kb"][:] = np.minimum(
            200e3, a["mem_buffers_kb"] * 0.995 + ios * 4.0
        )
        used = (
            self.base_mem_kb + rss_total + a["mem_cached_kb"] + a["mem_buffers_kb"]
        )
        a["mem_free_kb"][:] = np.maximum(64.0 * 1024.0, a["mem_total_kb"] - used)
        a["mem_committed_kb"][:] = self.base_mem_kb + self.proc_vsz_kb
        a["mem_active_kb"][:] = rss_total + a["mem_cached_kb"] * 0.4

        runq = np.maximum(0.0, self.acc_cpu_demand - self.cpu_cores) + np.where(
            self.acc_cpu_demand > 0, 1.0, 0.0
        )
        a["loadavg_runq_sz"][:] = runq
        occupancy = np.minimum(self.acc_cpu_demand, self.cpu_cores) + runq
        for k, tau in enumerate(_LOAD_TAU):
            alpha = 1.0 - np.exp(-dt / tau)
            self.loads[:, k] += alpha * (occupancy - self.loads[:, k])
        a["loadavg_one"][:] = self.loads[:, 0]
        a["loadavg_five"][:] = self.loads[:, 1]
        a["loadavg_fifteen"][:] = self.loads[:, 2]
        a["loadavg_plist_sz"][:] = 80.0 + self.proc_count

        a["sockstat_tcpsck"][:] = 12.0 + 2.0 * self.acc_streams
        a["sockstat_totsck"][:] = 40.0 + 2.0 * self.acc_streams
        a["sockstat_tcp_tw"][:] = np.maximum(0.0, a["sockstat_tcp_tw"] * 0.9) + (
            0.5 * self.acc_streams
        )

        # Per-process fold: stays a Python loop over the (few) nodes with
        # booked per-process activity this tick -- bit-identical to scalar.
        for node in self.nodes:
            pp = node._per_proc
            if not pp:
                continue
            fs_procs = node.procfs.processes
            spec = node.spec
            for pid, (u, s, r, w) in pp.items():
                if pid not in fs_procs:
                    continue
                proc = fs_procs[pid]
                proc.utime += u
                proc.stime += s
                proc.read_kb += r / 1024.0
                proc.write_kb += w / 1024.0
                proc.minflt += 200.0 * (u + s)
                proc.cswch += 50.0 * (u + s) + (r + w) / DISK_IO_BYTES
                proc.nvcswch += 10.0 * (u + s)
                proc.iodelay_ticks += 100.0 * min(
                    dt, (r / spec.disk_read_bytes_s)
                    + (w / spec.disk_write_bytes_s),
                )
            pp.clear()

        for arr in self._acc_arrays:
            arr.fill(0.0)
        self.ticks += 1


# -- array-backed /proc views -------------------------------------------------


def _field_property(key: str) -> property:
    def _get(self):
        return self._f.a[key][self._i]

    def _set(self, value):
        self._f.a[key][self._i] = value

    return property(_get, _set)


class _View:
    __slots__ = ("_f", "_i")

    def __init__(self, fleet: FleetState, i: int) -> None:
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


VecCpuView = _make_view("VecCpuView", "cpu", CpuTicks, {"total": _cpu_total})
VecDiskView = _make_view("VecDiskView", "disk", DiskCounters)
VecVmView = _make_view("VecVmView", "vm", VmCounters)
VecStatView = _make_view("VecStatView", "stat", KernelStat)
VecMemView = _make_view(
    "VecMemView", "mem", MemInfo, {"used_kb": property(_mem_used_kb)}
)
VecLoadAvgView = _make_view("VecLoadAvgView", "loadavg", LoadAvg)
VecSockStatView = _make_view("VecSockStatView", "sockstat", SockStat)
VecTcpView = _make_view("VecTcpView", "tcp", TcpCounters)
VecTablesView = _make_view("VecTablesView", "tables", KernelTables)
VecNicView = _make_view("VecNicView", "nic", NicCounters)


class VecProcFS:
    """The ``SimProcFS`` surface of one node, backed by fleet arrays.

    Only ``eth0`` is array-backed (the simulator never folds activity
    into other interfaces); additional NICs requested through
    :meth:`nic` get ordinary :class:`NicCounters` instances.
    """

    def __init__(self, fleet: FleetState, i: int, num_cpus: int) -> None:
        self._fleet = fleet
        self._i = i
        self.num_cpus = num_cpus
        self.cpu = VecCpuView(fleet, i)
        self.disk = VecDiskView(fleet, i)
        self.vm = VecVmView(fleet, i)
        self.stat = VecStatView(fleet, i)
        self.mem = VecMemView(fleet, i)
        self.loadavg = VecLoadAvgView(fleet, i)
        self.sockstat = VecSockStatView(fleet, i)
        self.tcp = VecTcpView(fleet, i)
        self.tables = VecTablesView(fleet, i)
        self.nics: Dict[str, object] = {"eth0": VecNicView(fleet, i)}
        self.processes: Dict[int, ProcessStat] = {}

    def nic(self, name: str = "eth0"):
        nic = self.nics.get(name)
        if nic is None:
            nic = NicCounters()
            self.nics[name] = nic
        return nic

    def process(self, pid: int, name: str = "") -> ProcessStat:
        proc = self.processes.get(pid)
        if proc is None:
            proc = ProcessStat(pid=pid, name=name)
            self.processes[pid] = proc
        self._fleet.proc_dirty.add(self._i)
        return proc

    def sampler(self):
        """This node's sampler over the fleet's one-pass ``sadc``.

        :func:`repro.sysstat.sadc.node_sampler` looks for this method:
        a procfs that has it is array-backed and joins the fleet pass.
        """
        return self._fleet.sadc.sampler(self._i)

    def _materialize(self, cls: type, prefix: str):
        a = self._fleet.a
        i = self._i
        return cls(**{
            f.name: float(a[f"{prefix}_{f.name}"][i])
            for f in dataclass_fields(cls)
        })

    def snapshot(self) -> SimProcFS:
        """A plain, detached ``SimProcFS`` copy for rate differencing."""
        nics = {"eth0": self._materialize(NicCounters, "nic")}
        for name, nic in self.nics.items():
            if name != "eth0":
                nics[name] = copy.deepcopy(nic)
        return SimProcFS(
            num_cpus=self.num_cpus,
            cpu=self._materialize(CpuTicks, "cpu"),
            disk=self._materialize(DiskCounters, "disk"),
            vm=self._materialize(VmCounters, "vm"),
            stat=self._materialize(KernelStat, "stat"),
            mem=self._materialize(MemInfo, "mem"),
            loadavg=self._materialize(LoadAvg, "loadavg"),
            sockstat=self._materialize(SockStat, "sockstat"),
            tcp=self._materialize(TcpCounters, "tcp"),
            tables=self._materialize(KernelTables, "tables"),
            nics=nics,
            processes={pid: copy.copy(p) for pid, p in self.processes.items()},
        )


class VecSimNode(SimNode):
    """A ``SimNode`` whose accounting lands in :class:`FleetState` arrays."""

    def __init__(
        self, name: str, spec: NodeSpec, seed: int, fleet: FleetState, index: int
    ) -> None:
        self.name = name
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        from .noise import TickNoise

        self.noise = TickNoise(self.rng)
        self._fleet = fleet
        self._i = index
        self.procfs = VecProcFS(fleet, index, num_cpus=int(round(spec.cpu_cores)))
        self._base_mem_kb = 300.0 * 1024.0
        self._per_proc: Dict[int, Tuple[float, float, float, float]] = {}
        fleet.register(self)

    # -- per-tick accounting (array-backed twins of the SimNode methods) -------

    def begin_tick(self) -> None:
        f = self._fleet
        i = self._i
        for arr in f._acc_arrays:
            arr[i] = 0.0
        self._per_proc.clear()

    def account_cpu(self, pid: int, user_s: float, sys_s: float = 0.0) -> None:
        f = self._fleet
        i = self._i
        f.acc_cpu_user[i] += max(0.0, user_s)
        f.acc_cpu_sys[i] += max(0.0, sys_s)
        u, s, r, w = self._per_proc.get(pid, (0.0, 0.0, 0.0, 0.0))
        self._per_proc[pid] = (u + max(0.0, user_s), s + max(0.0, sys_s), r, w)

    def note_cpu_demand(self, cores: float) -> None:
        self._fleet.acc_cpu_demand[self._i] += max(0.0, cores)

    def account_disk(self, pid: int, read_bytes: float, write_bytes: float) -> None:
        f = self._fleet
        i = self._i
        f.acc_disk_read[i] += max(0.0, read_bytes)
        f.acc_disk_write[i] += max(0.0, write_bytes)
        u, s, r, w = self._per_proc.get(pid, (0.0, 0.0, 0.0, 0.0))
        self._per_proc[pid] = (
            u, s, r + max(0.0, read_bytes), w + max(0.0, write_bytes)
        )

    def account_iowait(self, seconds: float) -> None:
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

    def remove_process(self, pid: int) -> None:
        self.procfs.processes.pop(pid, None)
        self._fleet.proc_dirty.add(self._i)

    def end_tick(self, dt: float) -> None:
        raise NotImplementedError(
            "vectorized nodes advance together via FleetState.end_tick_all"
        )


# -- vectorized tick context --------------------------------------------------


class VecTickContext(TickContext):
    """A ``TickContext`` that arbitrates with array math.

    Demand arrives as an ordered stream of *segments*: bulk blocks
    (``demand_cpu_bulk`` / ``demand_transfer_bulk`` -- one array per
    fleet-wide declaration such as "every tasktracker daemon wants 0.02
    cores") interleaved with per-activity :class:`CpuDemand` /
    :class:`Transfer` objects from task attempts and external loads.
    Flattening the segments in order reproduces the scalar declaration
    sequence, so per-node ``bincount`` totals match the scalar sums bit
    for bit.
    """

    def __init__(
        self,
        nodes: Dict[str, SimNode],
        network: NetworkModel,
        dt: float,
        fleet: FleetState,
    ) -> None:
        super().__init__(nodes, network, dt)
        self.fleet = fleet
        # Ordered streams: a CpuDemand/Transfer object, or a bulk tuple.
        self._cpu_stream: List[object] = []
        self._net_stream: List[object] = []

    # -- declaration -----------------------------------------------------------

    def demand_cpu(self, node, pid, cores, sys_fraction=0.15):
        demand = super().demand_cpu(node, pid, cores, sys_fraction)
        self._cpu_stream.append(demand)
        return demand

    def demand_cpu_bulk(self, idx: np.ndarray, cores: float) -> None:
        """Declare ``cores`` on every node in ``idx`` (zero-booking daemons).

        The scalar path books these grants immediately at declaration
        time -- while ``granted`` is still 0.0 -- so they only influence
        arbitration totals and the run-queue, never the booked counters.
        The bulk path therefore skips the no-op zero booking entirely.
        """
        wanted = np.full(len(idx), max(0.0, cores) * self.dt)
        self._cpu_stream.append(("bulk", idx, wanted))
        self.fleet.acc_cpu_demand[idx] += max(0.0, cores)

    def demand_transfer(self, src, dst, wanted_bytes, tag=""):
        transfer = super().demand_transfer(src, dst, wanted_bytes, tag)
        self._net_stream.append(transfer)
        return transfer

    def demand_transfer_bulk(
        self, src_idx: np.ndarray, dst_idx: np.ndarray, wanted_bytes: float
    ) -> None:
        """Declare one ``wanted_bytes`` transfer per (src, dst) pair."""
        wanted = np.full(len(src_idx), max(0.0, wanted_bytes))
        self._net_stream.append(("bulk", src_idx, dst_idx, wanted))

    # -- arbitration -----------------------------------------------------------

    def _flatten_cpu(self):
        """The ordered (node_idx, wanted) stream plus object positions."""
        index = self.fleet.index
        chunks_i: List[np.ndarray] = []
        chunks_w: List[np.ndarray] = []
        positions: List[Tuple[CpuDemand, int]] = []
        pend_i: List[int] = []
        pend_w: List[float] = []
        pend_obj: List[CpuDemand] = []
        offset = 0

        def flush():
            nonlocal offset
            if pend_i:
                chunks_i.append(np.array(pend_i, dtype=np.intp))
                chunks_w.append(np.array(pend_w))
                for j, obj in enumerate(pend_obj):
                    positions.append((obj, offset + j))
                offset += len(pend_i)
                pend_i.clear()
                pend_w.clear()
                pend_obj.clear()

        for seg in self._cpu_stream:
            if isinstance(seg, CpuDemand):
                pend_i.append(index[seg.node])
                pend_w.append(seg.wanted)
                pend_obj.append(seg)
            else:
                flush()
                _, idx, wanted = seg
                chunks_i.append(idx)
                chunks_w.append(wanted)
                offset += len(idx)
        flush()
        if not chunks_i:
            return None, None, positions
        return np.concatenate(chunks_i), np.concatenate(chunks_w), positions

    def _flatten_net(self):
        index = self.fleet.index
        chunks_s: List[np.ndarray] = []
        chunks_d: List[np.ndarray] = []
        chunks_w: List[np.ndarray] = []
        positions: List[Tuple[Transfer, int]] = []
        pend_s: List[int] = []
        pend_d: List[int] = []
        pend_w: List[float] = []
        pend_obj: List[Transfer] = []
        offset = 0

        def flush():
            nonlocal offset
            if pend_s:
                chunks_s.append(np.array(pend_s, dtype=np.intp))
                chunks_d.append(np.array(pend_d, dtype=np.intp))
                chunks_w.append(np.array(pend_w))
                for j, obj in enumerate(pend_obj):
                    positions.append((obj, offset + j))
                offset += len(pend_s)
                pend_s.clear()
                pend_d.clear()
                pend_w.clear()
                pend_obj.clear()

        for seg in self._net_stream:
            if isinstance(seg, Transfer):
                pend_s.append(index[seg.src])
                pend_d.append(index[seg.dst])
                pend_w.append(seg.wanted_bytes)
                pend_obj.append(seg)
            else:
                flush()
                _, src_idx, dst_idx, wanted = seg
                chunks_s.append(src_idx)
                chunks_d.append(dst_idx)
                chunks_w.append(wanted)
                offset += len(src_idx)
        flush()
        if not chunks_s:
            return None, None, None, positions
        return (
            np.concatenate(chunks_s),
            np.concatenate(chunks_d),
            np.concatenate(chunks_w),
            positions,
        )

    def arbitrate(self) -> None:
        fleet = self.fleet
        n = fleet.n
        dt = self.dt

        # CPU: proportional share of each node's core capacity.
        idx, wanted, positions = self._flatten_cpu()
        if idx is not None:
            cleaned = np.maximum(0.0, wanted)
            totals = np.bincount(idx, weights=cleaned, minlength=n)
            capacity = fleet.cpu_cores * dt
            over = (totals > capacity) & (totals > 0.0)
            factor = np.ones(n)
            np.divide(capacity, totals, out=factor, where=over)
            grants = cleaned * factor[idx]
            for demand, pos in positions:
                demand.granted = float(grants[pos])

        # Disk: same joint-saturation rule as the scalar path; volumes
        # are low (only attempts and hogs touch disk), so the object
        # loop is kept -- it books through the array-backed nodes.
        disk_by_node: Dict[str, List] = {}
        for demand in self._disk:
            disk_by_node.setdefault(demand.node, []).append(demand)
        for node_name, demands in disk_by_node.items():
            spec = self.nodes[node_name].spec
            busy = sum(
                d.read_wanted / spec.disk_read_bytes_s
                + d.write_wanted / spec.disk_write_bytes_s
                for d in demands
            )
            factor = 1.0 if busy <= dt or busy <= 0 else dt / busy
            for demand in demands:
                demand.read_granted = demand.read_wanted * factor
                demand.write_granted = demand.write_wanted * factor
                self.nodes[node_name].account_disk(
                    demand.pid, demand.read_granted, demand.write_granted
                )

        # Network: min of endpoint shares, degraded by packet loss --
        # the vector mirror of NetworkModel.arbitrate plus the booking
        # loop at the end of TickContext.arbitrate.
        src, dst, wanted, net_positions = self._flatten_net()
        if src is None:
            return
        local = src == dst
        nonlocal_mask = ~local
        w_nonneg = np.maximum(0.0, wanted)
        src_nl = src[nonlocal_mask]
        dst_nl = dst[nonlocal_mask]
        w_nl = w_nonneg[nonlocal_mask]
        tx_total = np.bincount(src_nl, weights=w_nl, minlength=n)
        rx_total = np.bincount(dst_nl, weights=w_nl, minlength=n)
        nic_capacity = fleet.nic_bps * dt
        tx_share = np.ones(n)
        tx_over = (tx_total > nic_capacity) & (tx_total > 0.0)
        np.divide(nic_capacity, tx_total, out=tx_share, where=tx_over)
        rx_share = np.ones(n)
        rx_over = (rx_total > nic_capacity) & (rx_total > 0.0)
        np.divide(nic_capacity, rx_total, out=rx_share, where=rx_over)

        loss = np.zeros(n)
        for name, rate in self.network.loss_rates().items():
            i = fleet.index.get(name)
            if i is not None:
                loss[i] = rate

        factor = np.minimum(tx_share[src], rx_share[dst])
        combined_loss = 1.0 - (1.0 - loss[src]) * (1.0 - loss[dst])
        p = np.minimum(1.0, np.maximum(0.0, combined_loss))
        goodput = (1.0 - p) ** 2 / (1.0 + 10.0 * p)
        wire = w_nonneg * factor
        granted = np.where(local, w_nonneg, wire * goodput)
        dropped = np.where(local, 0.0, wire * goodput * combined_loss)

        for transfer, pos in net_positions:
            transfer.granted_bytes = float(granted[pos])
            transfer.dropped_bytes = float(dropped[pos])

        g_nl = np.maximum(0.0, granted[nonlocal_mask])
        d_nl = np.maximum(0.0, dropped[nonlocal_mask])
        fleet.acc_net_tx += np.bincount(src_nl, weights=g_nl, minlength=n)
        fleet.acc_net_tx_drop += np.bincount(src_nl, weights=d_nl, minlength=n)
        fleet.acc_net_rx += np.bincount(dst_nl, weights=g_nl, minlength=n)
        fleet.acc_net_rx_drop += np.bincount(dst_nl, weights=d_nl, minlength=n)
        streams = (granted[nonlocal_mask] > 0.0).astype(float)
        fleet.acc_streams += np.bincount(src_nl, weights=streams, minlength=n)
        fleet.acc_streams += np.bincount(dst_nl, weights=streams, minlength=n)


__all__ = [
    "FleetState",
    "VecProcFS",
    "VecSimNode",
    "VecTickContext",
]
