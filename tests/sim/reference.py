"""The per-node simulator: the oracle the fleet is held to.

Before the struct-of-arrays fleet, every node was an object with its own
tick accumulators folded into a dataclass ``/proc`` by its own
``end_tick``, and every demand was arbitrated by Python loops.  That
model lives on here, its arithmetic unchanged:

- :class:`TickNoise` -- one node's noise, served one tick at a time;
- :class:`ReferenceNode` -- one node's accumulators and ``end_tick``;
- :class:`ReferenceTickContext` -- per-node demand lists and ``arbitrate``;
- :class:`ReferenceNetwork` -- the scalar NIC arbitration;
- :func:`share_proportionally` -- the CPU share rule;
- :class:`ReferenceCluster` -- ``HadoopCluster`` stepped one call per
  daemon, heartbeat and node.

``helpers.tick_parity_mismatches`` compares :class:`HadoopCluster`
against :class:`ReferenceCluster` -- every node's full procfs snapshot,
every tick -- so an edit to one term of ``FleetState.end_tick_all`` or
``TickContext.arbitrate`` fails unless it is made here too.  Nothing in
``src/`` can select this model.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hadoop import HadoopCluster
from repro.hadoop.mapreduce import HEARTBEAT_BYTES, TaskTracker
from repro.sim import (
    PACKET_BYTES,
    CpuDemand,
    DiskDemand,
    NetworkModel,
    NodeSpec,
    Transfer,
    tcp_goodput_factor,
)
from repro.sim.node import _LOAD_TAU, DISK_IO_BYTES
from repro.sim.noise import (
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

from sysstat.sadc_oracle import SimProcFS  # tests/sysstat: the dataclass /proc


class TickNoise:
    """One node's noise, one tick at a time.

    A block of ``NOISE_BLOCK`` ticks is drawn with :func:`fill_noise`
    and served column by column; a tick with a different ``dt`` flushes
    it and draws anew.  The fleet keeps the same blocks for every node
    in one array.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._dt = float("nan")
        self._buf = np.empty((8, 0))
        self._pos = 0

    def draw(self, dt: float) -> np.ndarray:
        """The next tick's eight noise values, drawn for ``dt``."""
        if self._pos >= self._buf.shape[1] or dt != self._dt:
            self._buf = np.empty((8, NOISE_BLOCK))
            fill_noise(self.rng, dt, self._buf)
            self._dt = dt
            self._pos = 0
        row = self._buf[:, self._pos]
        self._pos += 1
        return row


def share_proportionally(wanted: Sequence[float], capacity: float) -> List[float]:
    """Grant each demand its proportional share of ``capacity``.

    If total demand fits within capacity every demand is granted in full;
    otherwise all demands are scaled by the same factor.  Zero and
    negative demands receive zero.
    """
    cleaned = [max(0.0, w) for w in wanted]
    total = sum(cleaned)
    if total <= capacity or total <= 0.0:
        return cleaned
    factor = capacity / total
    return [w * factor for w in cleaned]


class ReferenceNode:
    """One node's resources, process table and dataclass ``/proc``."""

    def __init__(self, name: str, spec: NodeSpec, seed: int) -> None:
        self.name = name
        self.spec = spec
        self.noise = TickNoise(np.random.default_rng(seed))
        self.procfs = SimProcFS(num_cpus=int(round(spec.cpu_cores)))
        self.procfs.mem.total_kb = spec.memory_mb * 1024.0
        self.procfs.mem.free_kb = spec.memory_mb * 1024.0
        self.procfs.nic("eth0").speed_mbps = spec.nic_mbit_s
        self._loads = [0.0, 0.0, 0.0]
        self._base_mem_kb = 300.0 * 1024.0  # kernel + system daemons
        self.begin_tick()

    def begin_tick(self) -> None:
        self._cpu_user = 0.0
        self._cpu_sys = 0.0
        self._cpu_iowait = 0.0
        self._cpu_demand = 0.0
        self._disk_read = 0.0
        self._disk_write = 0.0
        self._net_tx = 0.0
        self._net_rx = 0.0
        self._net_tx_drop = 0.0
        self._net_rx_drop = 0.0
        self._forks = 0.0
        self._iowait_procs = 0.0
        self._per_proc: Dict[int, Tuple[float, float, float, float]] = {}
        self._active_streams = 0

    # -- per-tick accounting ---------------------------------------------------

    def account_cpu(self, pid: int, user_s: float, sys_s: float = 0.0) -> None:
        self._cpu_user += max(0.0, user_s)
        self._cpu_sys += max(0.0, sys_s)
        u, s, r, w = self._per_proc.get(pid, (0.0, 0.0, 0.0, 0.0))
        self._per_proc[pid] = (u + max(0.0, user_s), s + max(0.0, sys_s), r, w)

    def note_cpu_demand(self, cores: float) -> None:
        self._cpu_demand += max(0.0, cores)

    def account_disk(self, pid: int, read_bytes: float, write_bytes: float) -> None:
        self._disk_read += max(0.0, read_bytes)
        self._disk_write += max(0.0, write_bytes)
        u, s, r, w = self._per_proc.get(pid, (0.0, 0.0, 0.0, 0.0))
        self._per_proc[pid] = (
            u, s, r + max(0.0, read_bytes), w + max(0.0, write_bytes)
        )

    def account_iowait(self, seconds: float) -> None:
        self._cpu_iowait += max(0.0, seconds)
        self._iowait_procs += 1.0

    def account_net(
        self,
        tx_bytes: float = 0.0,
        rx_bytes: float = 0.0,
        tx_dropped: float = 0.0,
        rx_dropped: float = 0.0,
    ) -> None:
        self._net_tx += max(0.0, tx_bytes)
        self._net_rx += max(0.0, rx_bytes)
        self._net_tx_drop += max(0.0, tx_dropped)
        self._net_rx_drop += max(0.0, rx_dropped)
        if tx_bytes > 0 or rx_bytes > 0:
            self._active_streams += 1

    def account_forks(self, count: float) -> None:
        self._forks += max(0.0, count)

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

    # -- folding the tick into /proc -------------------------------------------

    def end_tick(self, dt: float) -> None:
        """Fold accumulated activity plus OS noise into the counters."""
        fs = self.procfs
        noise = self.noise.draw(dt)
        capacity = self.spec.cpu_cores * dt

        # Background OS activity keeps fault-free metrics non-degenerate.
        noise_user = noise[GAMMA_USER] * dt
        noise_sys = noise[GAMMA_SYS] * dt

        user = self._cpu_user + noise_user
        system = self._cpu_sys + noise_sys
        # Interrupt/nice overhead comes off the top of the budget; the
        # partition below always sums to exactly `capacity` per tick.
        irq = min(0.01 * dt + 1e-9 * (self._net_rx + self._net_tx), capacity * 0.05)
        softirq = irq * 0.6
        nice = min(0.0005 * dt, capacity * 0.01)
        available = capacity - irq - softirq - nice
        busy = user + system
        if busy > available:
            scale = available / busy
            user *= scale
            system *= scale
            busy = available
        iowait = min(self._cpu_iowait, available - busy)
        idle = max(0.0, available - busy - iowait)

        fs.cpu.user += user
        fs.cpu.system += system
        fs.cpu.iowait += iowait
        fs.cpu.idle += idle
        fs.cpu.irq += irq
        fs.cpu.softirq += softirq
        fs.cpu.nice += nice

        # Disk: derive request counts and busy time from bytes moved.
        reads = self._disk_read / DISK_IO_BYTES
        writes = self._disk_write / DISK_IO_BYTES
        fs.disk.reads_completed += reads
        fs.disk.writes_completed += writes
        fs.disk.sectors_read += self._disk_read / 512.0
        fs.disk.sectors_written += self._disk_write / 512.0
        read_busy = self._disk_read / self.spec.disk_read_bytes_s
        write_busy = self._disk_write / self.spec.disk_write_bytes_s
        busy_frac = min(1.0, read_busy + write_busy)
        fs.disk.io_time_ms += busy_frac * dt * 1000.0
        queue_depth = 1.0 + 3.0 * busy_frac + self._iowait_procs
        fs.disk.weighted_io_time_ms += busy_frac * dt * 1000.0 * queue_depth

        # Network counters, aggregated onto eth0.
        nic = fs.nic("eth0")
        tx_pkts = (self._net_tx + self._net_tx_drop) / PACKET_BYTES
        rx_pkts = (self._net_rx + self._net_rx_drop) / PACKET_BYTES
        nic.tx_bytes += self._net_tx
        nic.rx_bytes += self._net_rx
        nic.tx_packets += tx_pkts
        nic.rx_packets += rx_pkts
        nic.tx_drop += self._net_tx_drop / PACKET_BYTES
        nic.rx_drop += self._net_rx_drop / PACKET_BYTES
        nic.tx_errs += self._net_tx_drop / PACKET_BYTES * 0.1
        nic.rx_errs += self._net_rx_drop / PACKET_BYTES * 0.1
        nic.multicast += noise[POISSON_MCAST]

        # Kernel counters derived from activity levels.
        ios = reads + writes
        fs.stat.ctxt += (
            800.0 * dt + 300.0 * busy + 0.5 * (tx_pkts + rx_pkts) + 2.0 * ios
            + noise[NORMAL_CTXT]
        )
        fs.stat.intr += (
            250.0 * dt + tx_pkts + rx_pkts + ios + noise[NORMAL_INTR]
        )
        fs.stat.processes += self._forks + noise[POISSON_FORKS]
        fs.tcp.in_segs += rx_pkts
        fs.tcp.out_segs += tx_pkts
        fs.tcp.active_opens += 0.2 * dt + 0.02 * self._active_streams
        fs.tcp.passive_opens += 0.2 * dt + 0.02 * self._active_streams

        # Paging follows CPU work (heap churn) and disk traffic.
        fs.vm.pgpgin_kb += self._disk_read / 1024.0
        fs.vm.pgpgout_kb += self._disk_write / 1024.0
        fs.vm.pgfault += 50.0 * dt + 400.0 * busy + noise[NORMAL_PGFAULT]
        fs.vm.pgmajfault += noise[POISSON_PGMAJ]
        fs.vm.pgfree += 60.0 * dt + 0.3 * (self._disk_read + self._disk_write) / 4096.0

        # Memory gauges: resident sets plus a page cache fed by I/O.
        rss_total = sum(p.rss_kb for p in fs.processes.values())
        fs.mem.cached_kb = min(
            fs.mem.total_kb * 0.5,
            fs.mem.cached_kb * 0.999 + (self._disk_read + self._disk_write) / 1024.0,
        )
        fs.mem.buffers_kb = min(200e3, fs.mem.buffers_kb * 0.995 + ios * 4.0)
        used = self._base_mem_kb + rss_total + fs.mem.cached_kb + fs.mem.buffers_kb
        fs.mem.free_kb = max(64.0 * 1024.0, fs.mem.total_kb - used)
        fs.mem.committed_kb = self._base_mem_kb + sum(
            p.vsz_kb for p in fs.processes.values()
        )
        fs.mem.active_kb = rss_total + fs.mem.cached_kb * 0.4

        # Scheduler gauges: run queue is unmet demand, load is its EMA.
        runq = max(0.0, self._cpu_demand - self.spec.cpu_cores) + (
            1.0 if self._cpu_demand > 0 else 0.0
        )
        fs.loadavg.runq_sz = runq
        occupancy = min(self._cpu_demand, self.spec.cpu_cores) + runq
        for i, tau in enumerate(_LOAD_TAU):
            alpha = 1.0 - np.exp(-dt / tau)
            self._loads[i] += alpha * (occupancy - self._loads[i])
        fs.loadavg.one = self._loads[0]
        fs.loadavg.five = self._loads[1]
        fs.loadavg.fifteen = self._loads[2]
        fs.loadavg.plist_sz = 80.0 + len(fs.processes)

        # Socket gauges track live streams.
        fs.sockstat.tcpsck = 12.0 + 2.0 * self._active_streams
        fs.sockstat.totsck = 40.0 + 2.0 * self._active_streams
        fs.sockstat.tcp_tw = max(0.0, fs.sockstat.tcp_tw * 0.9) + (
            0.5 * self._active_streams
        )

        # Per-process counters.
        for pid, (u, s, r, w) in self._per_proc.items():
            if pid not in fs.processes:
                continue
            proc = fs.processes[pid]
            proc.utime += u
            proc.stime += s
            proc.read_kb += r / 1024.0
            proc.write_kb += w / 1024.0
            proc.minflt += 200.0 * (u + s)
            proc.cswch += 50.0 * (u + s) + (r + w) / DISK_IO_BYTES
            proc.nvcswch += 10.0 * (u + s)
            proc.iodelay_ticks += 100.0 * min(
                dt, (r / self.spec.disk_read_bytes_s)
                + (w / self.spec.disk_write_bytes_s),
            )

        self.begin_tick()


class ReferenceNetwork(NetworkModel):
    """Per-node NIC arbitration over the same injected-loss table."""

    def __init__(self, nic_bytes_s: Dict[str, float]) -> None:
        super().__init__()
        self._nic_bytes_s = dict(nic_bytes_s)

    def nic_capacity(self, node: str) -> float:
        return self._nic_bytes_s.get(node, 125e6)

    def path_goodput_factor(self, src: str, dst: str) -> float:
        """Combined goodput multiplier for the src->dst path."""
        combined_loss = 1.0 - (1.0 - self.loss_rate(src)) * (
            1.0 - self.loss_rate(dst)
        )
        return float(tcp_goodput_factor(combined_loss))

    def arbitrate(self, transfers: List[Transfer], dt: float) -> None:
        """Fill in ``granted_bytes``/``dropped_bytes`` on each transfer.

        Two-pass proportional share: first compute each node's aggregate
        transmit and receive demand, then grant each transfer
        ``wanted * min(tx_share(src), rx_share(dst)) * goodput``.
        """
        tx_demand: Dict[str, float] = {}
        rx_demand: Dict[str, float] = {}
        for transfer in transfers:
            if transfer.src == transfer.dst:
                continue
            wanted = max(0.0, transfer.wanted_bytes)
            tx_demand[transfer.src] = tx_demand.get(transfer.src, 0.0) + wanted
            rx_demand[transfer.dst] = rx_demand.get(transfer.dst, 0.0) + wanted

        def share(node: str, demand: Dict[str, float]) -> float:
            total = demand.get(node, 0.0)
            capacity = self.nic_capacity(node) * dt
            if total <= capacity or total <= 0.0:
                return 1.0
            return capacity / total

        for transfer in transfers:
            if transfer.src == transfer.dst:
                # Local path: not constrained by (or visible to) the NIC.
                transfer.granted_bytes = max(0.0, transfer.wanted_bytes)
                transfer.dropped_bytes = 0.0
                continue
            factor = min(
                share(transfer.src, tx_demand), share(transfer.dst, rx_demand)
            )
            goodput = self.path_goodput_factor(transfer.src, transfer.dst)
            wire_bytes = max(0.0, transfer.wanted_bytes) * factor
            transfer.granted_bytes = wire_bytes * goodput
            combined_loss = 1.0 - (1.0 - self.loss_rate(transfer.src)) * (
                1.0 - self.loss_rate(transfer.dst)
            )
            transfer.dropped_bytes = wire_bytes * goodput * combined_loss

    @staticmethod
    def packets(byte_count: float) -> float:
        """Packet count corresponding to ``byte_count`` of payload."""
        return byte_count / PACKET_BYTES


class ReferenceTickContext:
    """Collects all demands of one tick, then arbitrates them per node."""

    def __init__(
        self, nodes: Dict[str, ReferenceNode], network: ReferenceNetwork, dt: float
    ) -> None:
        self.nodes = nodes
        self.network = network
        self.dt = dt
        self._cpu: List[CpuDemand] = []
        self._disk: List[DiskDemand] = []
        self._transfers: List[Transfer] = []

    def demand_cpu(
        self, node: str, pid: int, cores: float, sys_fraction: float = 0.15
    ) -> CpuDemand:
        demand = CpuDemand(
            node=node,
            pid=pid,
            wanted=max(0.0, cores) * self.dt,
            sys_fraction=sys_fraction,
            _sim_node=self.nodes[node],
        )
        self._cpu.append(demand)
        self.nodes[node].note_cpu_demand(max(0.0, cores))
        return demand

    def demand_disk(
        self, node: str, pid: int, read_bytes: float = 0.0, write_bytes: float = 0.0
    ) -> DiskDemand:
        demand = DiskDemand(
            node=node,
            pid=pid,
            read_wanted=max(0.0, read_bytes),
            write_wanted=max(0.0, write_bytes),
        )
        self._disk.append(demand)
        return demand

    def demand_transfer(self, src: str, dst: str, wanted_bytes: float) -> Transfer:
        transfer = Transfer(src=src, dst=dst, wanted_bytes=max(0.0, wanted_bytes))
        self._transfers.append(transfer)
        return transfer

    def arbitrate(self) -> None:
        """Resolve all declared demands into grants, and book node counters."""
        # CPU: proportional share of each node's core capacity.
        by_node: Dict[str, List[CpuDemand]] = {}
        for demand in self._cpu:
            by_node.setdefault(demand.node, []).append(demand)
        for node_name, demands in by_node.items():
            capacity = self.nodes[node_name].spec.cpu_cores * self.dt
            grants = share_proportionally([d.wanted for d in demands], capacity)
            for demand, granted in zip(demands, grants):
                demand.granted = granted

        # Disk: reads and writes jointly saturate the device.
        disk_by_node: Dict[str, List[DiskDemand]] = {}
        for demand in self._disk:
            disk_by_node.setdefault(demand.node, []).append(demand)
        for node_name, demands in disk_by_node.items():
            spec = self.nodes[node_name].spec
            busy = sum(
                d.read_wanted / spec.disk_read_bytes_s
                + d.write_wanted / spec.disk_write_bytes_s
                for d in demands
            )
            factor = 1.0 if busy <= self.dt or busy <= 0 else self.dt / busy
            for demand in demands:
                demand.read_granted = demand.read_wanted * factor
                demand.write_granted = demand.write_wanted * factor
                self.nodes[node_name].account_disk(
                    demand.pid, demand.read_granted, demand.write_granted
                )

        # Network: min of endpoint shares, degraded by packet loss.
        self.network.arbitrate(self._transfers, self.dt)
        for transfer in self._transfers:
            if transfer.src == transfer.dst:
                continue
            src_node = self.nodes.get(transfer.src)
            dst_node = self.nodes.get(transfer.dst)
            if src_node is not None:
                src_node.account_net(
                    tx_bytes=transfer.granted_bytes,
                    tx_dropped=transfer.dropped_bytes,
                )
            if dst_node is not None:
                dst_node.account_net(
                    rx_bytes=transfer.granted_bytes,
                    rx_dropped=transfer.dropped_bytes,
                )


class ReferenceCluster(HadoopCluster):
    """``HadoopCluster`` on per-node :class:`ReferenceNode` objects and
    scalar arbitration."""

    def __init__(self, config=None) -> None:
        super().__init__(config)
        self.network = ReferenceNetwork(
            {name: self.config.node_spec.nic_bytes_s for name in self.nodes}
        )

    def _build_nodes(self, node_names):
        cfg = self.config
        self.fleet = None
        return {
            name: ReferenceNode(name, cfg.node_spec, seed=cfg.seed * 1000 + i)
            for i, name in enumerate(node_names)
        }

    def _heartbeat(self, tracker: TaskTracker, ctx: ReferenceTickContext, now: float):
        if not tracker.heartbeat_due(now):
            return
        ctx.demand_transfer(tracker.node_name, self.MASTER, HEARTBEAT_BYTES)
        ctx.demand_transfer(self.MASTER, tracker.node_name, HEARTBEAT_BYTES)
        tracker.heartbeat_pull(now)

    def step(self, dt: float = 1.0) -> None:
        self._run_due_actions()
        self._submit_due_jobs()
        now = self.time
        for node in self.nodes.values():
            node.begin_tick()

        ctx = ReferenceTickContext(self.nodes, self.network, dt)
        tracker_list = [self.trackers[name] for name in self.slave_names]
        offset = int(now) % max(1, len(tracker_list))
        for tracker in tracker_list[offset:] + tracker_list[:offset]:
            self._heartbeat(tracker, ctx, now)
        for tracker in tracker_list:
            ctx.demand_cpu(
                tracker.node_name, tracker.pid, TaskTracker.DAEMON_CORES
            ).book_all()
            tracker.demand_tasks(ctx, now)
            ctx.demand_cpu(
                tracker.node_name, tracker.pid + 1, self.DATANODE_DAEMON_CORES
            ).book_all()
        for load in self.external_loads:
            load.demand(ctx, now)

        ctx.arbitrate()

        for tracker in tracker_list:
            tracker.advance(now, dt)
        for load in self.external_loads:
            load.advance(now, dt)

        for node in self.nodes.values():
            node.end_tick(dt)
        self.time = now + dt
