"""Per-tick demand collection and arbitration.

Every simulation tick proceeds in two passes: activities (task attempts,
daemons, injected resource hogs) *declare* demands against their node's
CPU and disk and against the network, then the engine *arbitrates* --
proportional share per node resource, min-of-endpoint-shares for
transfers -- and fills the granted fields in place.  Activities then read
their grants back and advance their state machines.

This two-pass structure is what makes contention faults work: a CPUHog
declaring 2.8 cores on a 4-core node shrinks every map task's grant on
that node, slowing them down exactly as the paper's injected fault does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

import numpy as np

from .network import NetworkModel, Transfer
from .node import SimNode
from .resources import tcp_goodput_factor

if TYPE_CHECKING:
    from .vec import FleetState


@dataclass
class CpuDemand:
    """One activity's CPU demand on a node for this tick (core-seconds).

    The engine fills ``granted``; the *activity* decides how much of the
    grant it actually consumed (an I/O-stalled task consumes less) and
    books it through :meth:`book`, with the unconsumed remainder showing
    up as iowait rather than CPU burn.
    """

    node: str
    pid: int
    wanted: float
    granted: float = 0.0
    #: Fraction of consumed CPU booked as system (kernel) time.
    sys_fraction: float = 0.15
    _sim_node: "SimNode" = None

    def book(self, used: float, iowait: float = 0.0) -> None:
        """Record actually consumed CPU time (and I/O stall) on the node."""
        used = min(max(0.0, used), self.granted)
        sys_time = used * self.sys_fraction
        self._sim_node.account_cpu(self.pid, used - sys_time, sys_time)
        if iowait > 0:
            self._sim_node.account_iowait(iowait)

    def book_all(self) -> None:
        """Record the full grant as consumed (pure CPU burners)."""
        self.book(self.granted)


@dataclass
class DiskDemand:
    """One activity's disk demand on a node for this tick (bytes)."""

    node: str
    pid: int
    read_wanted: float
    write_wanted: float
    read_granted: float = 0.0
    write_granted: float = 0.0


def _flatten(stream: Sequence[object], row: Callable[[object], Tuple]):
    """An ordered demand stream as column arrays plus object positions.

    A bulk segment is a tuple of arrays (node index columns, then
    ``wanted``); ``row(obj)`` gives a demand object's (node indices...,
    wanted).  Returns ``(None, [])`` for an empty stream, else the
    concatenated columns and each object's ``(obj, position)``.
    """
    blocks: List[List[np.ndarray]] = []
    positions: List[Tuple[object, int]] = []
    pending: List[object] = []
    size = 0

    def flush() -> None:
        nonlocal size
        if pending:
            *index, wanted = zip(*(row(obj) for obj in pending))
            blocks.append(
                [np.array(col, dtype=np.intp) for col in index]
                + [np.array(wanted)]
            )
            positions.extend((obj, size + j) for j, obj in enumerate(pending))
            size += len(pending)
            pending.clear()

    for seg in stream:
        if isinstance(seg, tuple):
            flush()
            blocks.append(list(seg))
            size += len(seg[0])
        else:
            pending.append(seg)
    flush()
    if not blocks:
        return None, positions
    return [np.concatenate(col) for col in zip(*blocks)], positions


class TickContext:
    """Collects one tick's demands against a fleet, then arbitrates them.

    CPU and network demand each arrive as one ordered stream: bulk blocks
    (``demand_cpu_bulk`` / ``demand_transfer_bulk`` -- one array per
    fleet-wide declaration such as "every tasktracker daemon wants 0.02
    cores") interleaved with per-activity :class:`CpuDemand` /
    :class:`Transfer` objects from task attempts and external loads.
    Arbitration flattens each stream in declaration order and takes
    per-node totals with ``np.bincount``, which adds each bin's weights
    in input order -- the left-to-right sums of declaring one demand at
    a time.
    """

    def __init__(self, fleet: "FleetState", network: NetworkModel, dt: float) -> None:
        self.fleet = fleet
        self.network = network
        self.dt = dt
        self._cpu: List[object] = []
        self._disk: List[DiskDemand] = []
        self._net: List[object] = []

    def _node(self, name: str) -> SimNode:
        return self.fleet.nodes[self.fleet.index[name]]

    # -- declaration (first pass) ----------------------------------------------

    def demand_cpu(
        self, node: str, pid: int, cores: float, sys_fraction: float = 0.15
    ) -> CpuDemand:
        sim_node = self._node(node)
        demand = CpuDemand(
            node=node,
            pid=pid,
            wanted=max(0.0, cores) * self.dt,
            sys_fraction=sys_fraction,
            _sim_node=sim_node,
        )
        self._cpu.append(demand)
        sim_node.note_cpu_demand(cores)
        return demand

    def demand_cpu_bulk(self, idx: np.ndarray, cores: float) -> None:
        """Declare ``cores`` on every node in ``idx`` (zero-booking daemons).

        These demands only shape arbitration totals and the run queue; the
        daemons behind them book no CPU of their own.
        """
        self._cpu.append((idx, np.full(len(idx), max(0.0, cores) * self.dt)))
        self.fleet.acc_cpu_demand[idx] += max(0.0, cores)

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
        self._net.append(transfer)
        return transfer

    def demand_transfer_bulk(
        self, src_idx: np.ndarray, dst_idx: np.ndarray, wanted_bytes: float
    ) -> None:
        """Declare one ``wanted_bytes`` transfer per (src, dst) pair."""
        self._net.append(
            (src_idx, dst_idx, np.full(len(src_idx), max(0.0, wanted_bytes)))
        )

    # -- arbitration (second pass) -----------------------------------------------

    def arbitrate(self) -> None:
        """Resolve all declared demands into grants, and book node counters."""
        fleet = self.fleet
        index = fleet.index
        n = fleet.n
        dt = self.dt

        # CPU: proportional share of each node's core capacity.
        columns, positions = _flatten(
            self._cpu, lambda d: (index[d.node], d.wanted)
        )
        if columns is not None:
            idx, wanted = columns
            cleaned = np.maximum(0.0, wanted)
            totals = np.bincount(idx, weights=cleaned, minlength=n)
            capacity = fleet.cpu_cores * dt
            over = (totals > capacity) & (totals > 0.0)
            factor = np.ones(n)
            np.divide(capacity, totals, out=factor, where=over)
            grants = (cleaned * factor[idx]).tolist()
            for demand, pos in positions:
                demand.granted = grants[pos]

        # Disk: reads and writes jointly saturate the device.  The busy
        # fraction they'd require is computed against each bandwidth, and
        # all of a node's demands are scaled by the same factor when
        # oversubscribed.
        disk = self._disk
        if disk:
            idx = np.array([index[d.node] for d in disk], dtype=np.intp)
            read = np.array([d.read_wanted for d in disk])
            write = np.array([d.write_wanted for d in disk])
            each = read / fleet.disk_read_bps[idx] + write / fleet.disk_write_bps[idx]
            busy = np.bincount(idx, weights=each, minlength=n)
            disk_factor = np.ones(n)
            np.divide(dt, busy, out=disk_factor, where=busy > dt)
            read = read * disk_factor[idx]
            write = write * disk_factor[idx]
            fleet.acc_disk_read += np.bincount(idx, np.maximum(0.0, read), n)
            fleet.acc_disk_write += np.bincount(idx, np.maximum(0.0, write), n)
            nodes = fleet.nodes
            for demand, i, r, w in zip(disk, idx.tolist(), read.tolist(), write.tolist()):
                demand.read_granted = r
                demand.write_granted = w
                nodes[i].book_process_io(demand.pid, r, w)

        # Network: min of endpoint shares, degraded by packet loss;
        # local transfers bypass the NIC.
        columns, net_positions = _flatten(
            self._net, lambda t: (index[t.src], index[t.dst], t.wanted_bytes)
        )
        if columns is None:
            return
        src, dst, wanted = columns
        local = src == dst
        remote = ~local
        w_nonneg = np.maximum(0.0, wanted)
        src_nl = src[remote]
        dst_nl = dst[remote]
        w_nl = w_nonneg[remote]
        nic_capacity = fleet.nic_bps * dt

        def share(endpoints: np.ndarray) -> np.ndarray:
            total = np.bincount(endpoints, weights=w_nl, minlength=n)
            out = np.ones(n)
            over = (total > nic_capacity) & (total > 0.0)
            np.divide(nic_capacity, total, out=out, where=over)
            return out

        tx_share = share(src_nl)
        rx_share = share(dst_nl)
        loss = np.zeros(n)
        for name, rate in self.network.loss_rates().items():
            if name in index:
                loss[index[name]] = rate

        factor = np.minimum(tx_share[src], rx_share[dst])
        combined_loss = 1.0 - (1.0 - loss[src]) * (1.0 - loss[dst])
        goodput = tcp_goodput_factor(combined_loss)
        wire = w_nonneg * factor
        granted = np.where(local, w_nonneg, wire * goodput)
        dropped = np.where(local, 0.0, wire * goodput * combined_loss)

        granted_list = granted.tolist()
        dropped_list = dropped.tolist()
        for transfer, pos in net_positions:
            transfer.granted_bytes = granted_list[pos]
            transfer.dropped_bytes = dropped_list[pos]

        g_nl = np.maximum(0.0, granted[remote])
        d_nl = np.maximum(0.0, dropped[remote])
        fleet.acc_net_tx += np.bincount(src_nl, weights=g_nl, minlength=n)
        fleet.acc_net_tx_drop += np.bincount(src_nl, weights=d_nl, minlength=n)
        fleet.acc_net_rx += np.bincount(dst_nl, weights=g_nl, minlength=n)
        fleet.acc_net_rx_drop += np.bincount(dst_nl, weights=d_nl, minlength=n)
        streams = (granted[remote] > 0.0).astype(float)
        fleet.acc_streams += np.bincount(src_nl, weights=streams, minlength=n)
        fleet.acc_streams += np.bincount(dst_nl, weights=streams, minlength=n)
