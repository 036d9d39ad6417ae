"""Struct-of-arrays fleet state: the simulator core.

:class:`FleetState` keeps *all* per-node simulator state in arrays with
one lane per node -- the ``(counters x N)`` ``/proc`` matrix (``a[key]``
is a row view), the ``(accumulators x N)`` tick matrix (``acc_<name>``
rows), the load-average matrix and an ``(8 x N x NOISE_BLOCK)`` noise
block -- and :meth:`FleetState.end_tick_all` advances the whole fleet in
one vectorized pass per tick.  The per-node objects are views into it:
:class:`repro.sim.node.SimNode` books ``account_*`` calls into the
accumulators, :class:`repro.sim.node.ProcFS` reads and writes the
counter rows, and :class:`repro.sim.engine.TickContext` arbitrates
with ``np.bincount`` totals over the fleet.

The per-node model the fleet replaced is kept test-side as the parity
oracle (``tests/sim/reference.py``): a scalar node with its own
accumulators and ``end_tick``, stepped one demand call at a time.  Bit
parity with it is a design invariant, not a tolerance: every derived
expression in :meth:`FleetState.end_tick_all` mirrors the scalar
``end_tick`` term for term (``np.where`` plus guarded ``np.divide``
replace the data-dependent branches), and both take background noise
from blocks :func:`repro.sim.noise.fill_noise` draws from each node's
own seeded generator, so the random streams are identical by construction.
"""

from __future__ import annotations

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
    SockStat,
    TcpCounters,
    VmCounters,
)
from .network import PACKET_BYTES
from .node import _LOAD_TAU, DISK_IO_BYTES, SimNode
from .noise import (
    GAMMA_SYS,
    GAMMA_USER,
    NOISE_BLOCK,
    NORMAL_CTXT,
    NORMAL_INTR,
    NORMAL_PGFAULT,
    POISSON_FORKS,
    POISSON_MCAST,
    POISSON_PGMAJ,
    fill_noise,
)

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

#: Per-tick accumulator arrays, reset after every fold.
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

        # The /proc counters and gauges: one matrix row per
        # "<group>_<field>", and ``a[key]`` is that row as a view.
        defaults: Dict[str, float] = {}
        for prefix, cls in _PROC_GROUPS:
            proto = cls()
            for f in dataclass_fields(cls):
                defaults[f"{prefix}_{f.name}"] = float(getattr(proto, f.name))
        self.counter_row = {key: row for row, key in enumerate(defaults)}
        self.counters = np.tile(np.array(list(defaults.values()))[:, None], (1, n))
        self.a: Dict[str, np.ndarray] = {
            key: self.counters[row] for key, row in self.counter_row.items()
        }

        # Hardware spec arrays (filled as nodes register).
        self.cpu_cores = np.zeros(n)
        self.disk_read_bps = np.ones(n)
        self.disk_write_bps = np.ones(n)
        self.nic_bps = np.ones(n)
        self.base_mem_kb = np.full(n, 300.0 * 1024.0)

        # Load-average EMA state, one column per tau.
        self.loads = np.zeros((n, len(_LOAD_TAU)))

        # Tick accumulators: one matrix, ``acc_<name>`` a row view.
        self._acc = np.zeros((len(_ACCUMULATORS), n))
        for row, name in enumerate(_ACCUMULATORS):
            setattr(self, name, self._acc[row])

        # Every node's next NOISE_BLOCK ticks of noise, for ``_noise_dt``.
        self._noise = np.empty((8, n, NOISE_BLOCK))
        self._noise_dt = float("nan")
        self._noise_pos = NOISE_BLOCK

        # Cached process-table aggregates (exact in-order re-sums of the
        # per-node tables, recomputed only for nodes whose table changed).
        self.proc_rss_kb = np.zeros(n)
        self.proc_vsz_kb = np.zeros(n)
        self.proc_count = np.zeros(n)
        self.proc_dirty = set(range(n))

        self.nodes: List[Optional[SimNode]] = [None] * n

        #: Completed :meth:`end_tick_all` passes -- with the poll time,
        #: the validity key of the fleet ``sadc`` pass's cached matrix.
        self.ticks = 0
        #: The one-pass collector every node's sampler takes its row from.
        self.sadc = FleetSadc(self)

    def register(self, node: SimNode) -> None:
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
        self._acc.fill(0.0)
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

    def _next_noise(self, dt: float) -> np.ndarray:
        """The (8, N) noise of this tick.  A spent block, or a new ``dt``,
        refills every node's lane from its own generator, in node order."""
        if self._noise_pos >= NOISE_BLOCK or dt != self._noise_dt:
            for i, node in enumerate(self.nodes):
                fill_noise(node.rng, dt, self._noise[:, i])
            self._noise_dt = dt
            self._noise_pos = 0
        noise = self._noise[:, :, self._noise_pos]
        self._noise_pos += 1
        return noise

    def end_tick_all(self, dt: float) -> None:
        """Fold every node's tick into its counters in one array pass.

        The scalar reference ``end_tick`` in ``tests/sim/reference.py``
        mirrors this expression for expression; an edit here must be
        replicated there (the parity tests compare the two byte for
        byte).
        """
        a = self.a
        n = self.n
        self._refresh_proc_aggregates()

        noise = self._next_noise(dt)

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

        self._acc.fill(0.0)
        self.ticks += 1
