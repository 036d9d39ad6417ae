"""``libsadc``: turn successive ``/proc`` snapshots into metric samples.

Mirrors the system activity data collector from the sysstat package: a
sampler keeps the previous snapshot and, on each collection, differences
cumulative counters into per-second rates while reading gauges directly.
The result is a :class:`NodeSample` containing the full 64-metric
node-level vector, one 18-metric vector per NIC, and one 19-metric vector
per monitored process (see :mod:`repro.sysstat.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .metrics import NIC_METRICS, NODE_METRICS, PROCESS_METRICS
from .procfs import SimProcFS


@dataclass
class NodeSample:
    """One collection iteration's worth of metrics for a node."""

    timestamp: float
    node: Dict[str, float]
    nics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    processes: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def node_vector(self) -> np.ndarray:
        """The node-level metrics as a vector ordered by the catalog."""
        return np.array([self.node[name] for name in NODE_METRICS], dtype=float)


def _rate(current: float, previous: float, elapsed: float) -> float:
    """Per-second rate of a cumulative counter (clamped at zero)."""
    if elapsed <= 0:
        return 0.0
    return max(0.0, current - previous) / elapsed


def node_sampler(procfs):
    """The node-vector sampler ``procfs`` calls for.

    An array-backed procfs (:class:`repro.sim.vec.VecProcFS`) hands out
    its slot in the fleet's one-pass collector
    (:mod:`repro.sysstat.fleet_sadc`); a dataclass :class:`SimProcFS`
    gets its own :class:`Sadc`.  Either way the result has
    ``collect_vector(now)``, and the two agree element for element.
    """
    fleet_sampler = getattr(procfs, "sampler", None)
    return fleet_sampler() if fleet_sampler is not None else Sadc(procfs)


class Sadc:
    """Stateful sampler for one node's :class:`SimProcFS`.

    The first call to :meth:`collect` only primes the previous snapshot
    and returns ``None`` -- rates need two observations, exactly like the
    real ``sadc``.
    """

    def __init__(self, procfs: SimProcFS) -> None:
        self._procfs = procfs
        self._prev: Optional[SimProcFS] = None
        self._prev_time: float = 0.0

    def _step(self, now: float):
        """Snapshot ``/proc``; ``(current, previous, elapsed)`` once two
        observations a positive time apart exist, else ``None``."""
        current = self._procfs.snapshot()
        previous, prev_time = self._prev, self._prev_time
        self._prev, self._prev_time = current, now
        if previous is None:
            return None
        elapsed = now - prev_time
        if elapsed <= 0:
            return None
        return current, previous, elapsed

    def collect(self, now: float) -> Optional[NodeSample]:
        """Sample the node at time ``now``; ``None`` on the priming call."""
        step = self._step(now)
        if step is None:
            return None
        return NodeSample(
            timestamp=now,
            node=self._node_metrics(*step),
            nics=self._nic_metrics(*step),
            processes=self._process_metrics(*step),
        )

    def collect_vector(self, now: float) -> Optional[np.ndarray]:
        """The node-level vector of :meth:`collect`, catalog-ordered,
        without computing the per-NIC and per-process metrics."""
        step = self._step(now)
        if step is None:
            return None
        return NodeSample(now, self._node_metrics(*step)).node_vector()

    # -- node level -----------------------------------------------------------

    def _node_metrics(
        self, cur: SimProcFS, prev: SimProcFS, elapsed: float
    ) -> Dict[str, float]:
        cpu_total = max(1e-9, cur.cpu.total() - prev.cpu.total())

        def cpu_pct(name: str) -> float:
            delta = getattr(cur.cpu, name) - getattr(prev.cpu, name)
            return 100.0 * max(0.0, delta) / cpu_total

        reads = cur.disk.reads_completed - prev.disk.reads_completed
        writes = cur.disk.writes_completed - prev.disk.writes_completed
        ios = max(0.0, reads) + max(0.0, writes)
        io_time = max(0.0, cur.disk.io_time_ms - prev.disk.io_time_ms)
        weighted = max(
            0.0, cur.disk.weighted_io_time_ms - prev.disk.weighted_io_time_ms
        )

        rx_bytes = tx_bytes = rx_pkts = tx_pkts = rx_errs = tx_errs = 0.0
        for name, nic in cur.nics.items():
            prev_nic = prev.nics.get(name)
            if prev_nic is None:
                continue
            rx_bytes += max(0.0, nic.rx_bytes - prev_nic.rx_bytes)
            tx_bytes += max(0.0, nic.tx_bytes - prev_nic.tx_bytes)
            rx_pkts += max(0.0, nic.rx_packets - prev_nic.rx_packets)
            tx_pkts += max(0.0, nic.tx_packets - prev_nic.tx_packets)
            rx_errs += max(0.0, nic.rx_errs - prev_nic.rx_errs)
            tx_errs += max(0.0, nic.tx_errs - prev_nic.tx_errs)

        values = {
            "cpu_user_pct": cpu_pct("user"),
            "cpu_nice_pct": cpu_pct("nice"),
            "cpu_system_pct": cpu_pct("system"),
            "cpu_iowait_pct": cpu_pct("iowait"),
            "cpu_steal_pct": cpu_pct("steal"),
            "cpu_idle_pct": cpu_pct("idle"),
            "cpu_irq_pct": cpu_pct("irq"),
            "cpu_softirq_pct": cpu_pct("softirq"),
            "proc_per_s": _rate(cur.stat.processes, prev.stat.processes, elapsed),
            "cswch_per_s": _rate(cur.stat.ctxt, prev.stat.ctxt, elapsed),
            "runq_sz": cur.loadavg.runq_sz,
            "plist_sz": cur.loadavg.plist_sz,
            "ldavg_1": cur.loadavg.one,
            "ldavg_5": cur.loadavg.five,
            "ldavg_15": cur.loadavg.fifteen,
            "intr_per_s": _rate(cur.stat.intr, prev.stat.intr, elapsed),
            "pswpin_per_s": _rate(cur.vm.pswpin, prev.vm.pswpin, elapsed),
            "pswpout_per_s": _rate(cur.vm.pswpout, prev.vm.pswpout, elapsed),
            "swap_used_kb": max(0.0, cur.mem.swap_total_kb - cur.mem.swap_free_kb),
            "swap_free_kb": cur.mem.swap_free_kb,
            "pgpgin_per_s": _rate(cur.vm.pgpgin_kb, prev.vm.pgpgin_kb, elapsed),
            "pgpgout_per_s": _rate(cur.vm.pgpgout_kb, prev.vm.pgpgout_kb, elapsed),
            "fault_per_s": _rate(cur.vm.pgfault, prev.vm.pgfault, elapsed),
            "majflt_per_s": _rate(cur.vm.pgmajfault, prev.vm.pgmajfault, elapsed),
            "pgfree_per_s": _rate(cur.vm.pgfree, prev.vm.pgfree, elapsed),
            "pgscank_per_s": _rate(cur.vm.pgscank, prev.vm.pgscank, elapsed),
            "mem_free_kb": cur.mem.free_kb,
            "mem_used_kb": cur.mem.used_kb,
            "mem_used_pct": 100.0 * cur.mem.used_kb / max(1.0, cur.mem.total_kb),
            "buffers_kb": cur.mem.buffers_kb,
            "cached_kb": cur.mem.cached_kb,
            "commit_kb": cur.mem.committed_kb,
            "commit_pct": 100.0 * cur.mem.committed_kb
            / max(1.0, cur.mem.total_kb + cur.mem.swap_total_kb),
            "active_kb": cur.mem.active_kb,
            "tps": ios / elapsed,
            "rtps": max(0.0, reads) / elapsed,
            "wtps": max(0.0, writes) / elapsed,
            "bread_per_s": _rate(cur.disk.sectors_read, prev.disk.sectors_read, elapsed),
            "bwrtn_per_s": _rate(
                cur.disk.sectors_written, prev.disk.sectors_written, elapsed
            ),
            "await_ms": (weighted / ios) if ios > 0 else 0.0,
            "disk_util_pct": min(100.0, 100.0 * io_time / (elapsed * 1000.0)),
            "avgqu_sz": weighted / (elapsed * 1000.0),
            "svctm_ms": (io_time / ios) if ios > 0 else 0.0,
            "dentunusd": cur.tables.dentunusd,
            "file_nr": cur.tables.file_nr,
            "inode_nr": cur.tables.inode_nr,
            "pty_nr": cur.tables.pty_nr,
            "super_nr": cur.tables.super_nr,
            "net_rxpck_per_s": rx_pkts / elapsed,
            "net_txpck_per_s": tx_pkts / elapsed,
            "net_rxkb_per_s": rx_bytes / 1024.0 / elapsed,
            "net_txkb_per_s": tx_bytes / 1024.0 / elapsed,
            "net_rxerr_per_s": rx_errs / elapsed,
            "net_txerr_per_s": tx_errs / elapsed,
            "totsck": cur.sockstat.totsck,
            "tcpsck": cur.sockstat.tcpsck,
            "udpsck": cur.sockstat.udpsck,
            "rawsck": cur.sockstat.rawsck,
            "ip_frag": cur.sockstat.ip_frag,
            "tcp_tw": cur.sockstat.tcp_tw,
            "tcp_active_per_s": _rate(
                cur.tcp.active_opens, prev.tcp.active_opens, elapsed
            ),
            "tcp_passive_per_s": _rate(
                cur.tcp.passive_opens, prev.tcp.passive_opens, elapsed
            ),
            "tcp_iseg_per_s": _rate(cur.tcp.in_segs, prev.tcp.in_segs, elapsed),
            "tcp_oseg_per_s": _rate(cur.tcp.out_segs, prev.tcp.out_segs, elapsed),
        }
        missing = set(NODE_METRICS) - set(values)
        assert not missing, f"node metric catalog drift: {missing}"
        return values

    # -- per NIC ---------------------------------------------------------------

    def _nic_metrics(
        self, cur: SimProcFS, prev: SimProcFS, elapsed: float
    ) -> Dict[str, Dict[str, float]]:
        result: Dict[str, Dict[str, float]] = {}
        for name, nic in cur.nics.items():
            prev_nic = prev.nics.get(name)
            if prev_nic is None:
                continue
            rx_kb = _rate(nic.rx_bytes, prev_nic.rx_bytes, elapsed) / 1024.0
            tx_kb = _rate(nic.tx_bytes, prev_nic.tx_bytes, elapsed) / 1024.0
            capacity_kb = nic.speed_mbps * 1000.0 / 8.0  # Mbit/s -> kB/s
            values = {
                "rxpck_per_s": _rate(nic.rx_packets, prev_nic.rx_packets, elapsed),
                "txpck_per_s": _rate(nic.tx_packets, prev_nic.tx_packets, elapsed),
                "rxkb_per_s": rx_kb,
                "txkb_per_s": tx_kb,
                "rxcmp_per_s": _rate(
                    nic.rx_compressed, prev_nic.rx_compressed, elapsed
                ),
                "txcmp_per_s": _rate(
                    nic.tx_compressed, prev_nic.tx_compressed, elapsed
                ),
                "rxmcst_per_s": _rate(nic.multicast, prev_nic.multicast, elapsed),
                "rxerr_per_s": _rate(nic.rx_errs, prev_nic.rx_errs, elapsed),
                "txerr_per_s": _rate(nic.tx_errs, prev_nic.tx_errs, elapsed),
                "coll_per_s": _rate(nic.collisions, prev_nic.collisions, elapsed),
                "rxdrop_per_s": _rate(nic.rx_drop, prev_nic.rx_drop, elapsed),
                "txdrop_per_s": _rate(nic.tx_drop, prev_nic.tx_drop, elapsed),
                "txcarr_per_s": _rate(nic.tx_carrier, prev_nic.tx_carrier, elapsed),
                "rxfram_per_s": _rate(nic.rx_frame, prev_nic.rx_frame, elapsed),
                "rxfifo_per_s": _rate(nic.rx_fifo, prev_nic.rx_fifo, elapsed),
                "txfifo_per_s": _rate(nic.tx_fifo, prev_nic.tx_fifo, elapsed),
                "ifutil_pct": min(
                    100.0, 100.0 * max(rx_kb, tx_kb) / max(1.0, capacity_kb)
                ),
                "speed_mbps": nic.speed_mbps,
            }
            missing = set(NIC_METRICS) - set(values)
            assert not missing, f"NIC metric catalog drift: {missing}"
            result[name] = values
        return result

    # -- per process -------------------------------------------------------------

    def _process_metrics(
        self, cur: SimProcFS, prev: SimProcFS, elapsed: float
    ) -> Dict[int, Dict[str, float]]:
        result: Dict[int, Dict[str, float]] = {}
        for pid, proc in cur.processes.items():
            prev_proc = prev.processes.get(pid)
            if prev_proc is None:
                continue
            user_pct = 100.0 * _rate(proc.utime, prev_proc.utime, elapsed)
            system_pct = 100.0 * _rate(proc.stime, prev_proc.stime, elapsed)
            values = {
                "pcpu_user_pct": user_pct,
                "pcpu_system_pct": system_pct,
                "pcpu_total_pct": user_pct + system_pct,
                "minflt_per_s": _rate(proc.minflt, prev_proc.minflt, elapsed),
                "majflt_per_s": _rate(proc.majflt, prev_proc.majflt, elapsed),
                "vsz_kb": proc.vsz_kb,
                "rss_kb": proc.rss_kb,
                "mem_pct": 100.0 * proc.rss_kb / max(1.0, cur.mem.total_kb),
                "stk_size_kb": proc.stack_kb,
                "stk_ref_kb": proc.stack_ref_kb,
                "kb_rd_per_s": _rate(proc.read_kb, prev_proc.read_kb, elapsed),
                "kb_wr_per_s": _rate(proc.write_kb, prev_proc.write_kb, elapsed),
                "kb_ccwr_per_s": _rate(proc.ccwr_kb, prev_proc.ccwr_kb, elapsed),
                "iodelay_ticks": max(
                    0.0, proc.iodelay_ticks - prev_proc.iodelay_ticks
                ),
                "cswch_per_s": _rate(proc.cswch, prev_proc.cswch, elapsed),
                "nvcswch_per_s": _rate(proc.nvcswch, prev_proc.nvcswch, elapsed),
                "threads": proc.threads,
                "fds": proc.fds,
                "prio": proc.prio,
            }
            missing = set(PROCESS_METRICS) - set(values)
            assert not missing, f"process metric catalog drift: {missing}"
            result[pid] = values
        return result
