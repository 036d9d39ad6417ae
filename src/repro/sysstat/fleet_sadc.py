"""One ``sadc`` pass for a whole fleet of array-backed ``/proc`` nodes.

:class:`repro.sysstat.sadc.Sadc` samples one node: it materialises a
dataclass snapshot (~70 fields), differences it against the previous one
and computes the 64 node metrics in Python.  When the counters already
live in struct-of-arrays form (:class:`repro.sim.vec.FleetState`), the
same arithmetic runs once for every node: :class:`FleetSadc` copies the
35 cumulative counter columns, differences them against each sampler's
*own* previous column and poll time, and produces the (samplers x 64)
metric matrix in ~60 numpy operations.  Every sampler then takes its
row.

Per-sampler semantics are those of a private :class:`Sadc`, exactly:
each sampler owns a slot holding its previous counters and poll time, so
its priming poll returns ``None``, a second poll at the same ``now``
returns ``None`` (elapsed 0), and a sampler polled late, skipped for a
round or on its own cadence gets what its own ``Sadc`` would have
returned.  The matrix is cached for one (poll time, fleet tick count,
slot count) key: lock-step pollers share one pass per tick, any other
schedule recomputes.  Counters written into the fleet arrays directly
(not by a tick) are seen by the next poll at a different ``now``.

Bit parity with ``Sadc._node_metrics`` is a design invariant, not a
tolerance: every expression below mirrors it term for term
(``cpu.total()`` summation order, ``100.0 * max(0, d) / total``,
``bytes / 1024.0 / elapsed``, the ``ios > 0`` guards); any edit there
must be replicated here (``tests/sysstat/test_fleet_sadc.py`` compares
the two element for element with ``==``).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .metrics import NODE_METRICS

#: CPU modes in :meth:`CpuTicks.total` summation order; the catalog
#: lists the eight ``cpu_*_pct`` metrics first, in the same order.
_CPU_MODES = (
    "user", "nice", "system", "iowait", "steal", "idle", "irq", "softirq"
)

#: (counter array, node metric) for every plain ``_rate``:
#: ``max(0, cur - prev) / elapsed``.
_RATES: Tuple[Tuple[str, str], ...] = (
    ("stat_processes", "proc_per_s"),
    ("stat_ctxt", "cswch_per_s"),
    ("stat_intr", "intr_per_s"),
    ("vm_pswpin", "pswpin_per_s"),
    ("vm_pswpout", "pswpout_per_s"),
    ("vm_pgpgin_kb", "pgpgin_per_s"),
    ("vm_pgpgout_kb", "pgpgout_per_s"),
    ("vm_pgfault", "fault_per_s"),
    ("vm_pgmajfault", "majflt_per_s"),
    ("vm_pgfree", "pgfree_per_s"),
    ("vm_pgscank", "pgscank_per_s"),
    ("disk_sectors_read", "bread_per_s"),
    ("disk_sectors_written", "bwrtn_per_s"),
    ("tcp_active_opens", "tcp_active_per_s"),
    ("tcp_passive_opens", "tcp_passive_per_s"),
    ("tcp_in_segs", "tcp_iseg_per_s"),
    ("tcp_out_segs", "tcp_oseg_per_s"),
    ("disk_reads_completed", "rtps"),
    ("disk_writes_completed", "wtps"),
    ("nic_rx_packets", "net_rxpck_per_s"),
    ("nic_tx_packets", "net_txpck_per_s"),
    ("nic_rx_errs", "net_rxerr_per_s"),
    ("nic_tx_errs", "net_txerr_per_s"),
)

#: The cumulative counter columns, one matrix row each.
COUNTERS: Tuple[str, ...] = (
    tuple(f"cpu_{mode}" for mode in _CPU_MODES)
    + tuple(key for key, _ in _RATES)
    + (
        "nic_rx_bytes", "nic_tx_bytes",
        "disk_io_time_ms", "disk_weighted_io_time_ms",
    )
)

#: (gauge array, node metric) for gauges reported as read.
_GAUGES: Tuple[Tuple[str, str], ...] = (
    ("loadavg_runq_sz", "runq_sz"),
    ("loadavg_plist_sz", "plist_sz"),
    ("loadavg_one", "ldavg_1"),
    ("loadavg_five", "ldavg_5"),
    ("loadavg_fifteen", "ldavg_15"),
    ("mem_swap_free_kb", "swap_free_kb"),
    ("mem_free_kb", "mem_free_kb"),
    ("mem_buffers_kb", "buffers_kb"),
    ("mem_cached_kb", "cached_kb"),
    ("mem_committed_kb", "commit_kb"),
    ("mem_active_kb", "active_kb"),
    ("tables_dentunusd", "dentunusd"),
    ("tables_file_nr", "file_nr"),
    ("tables_inode_nr", "inode_nr"),
    ("tables_pty_nr", "pty_nr"),
    ("tables_super_nr", "super_nr"),
    ("sockstat_totsck", "totsck"),
    ("sockstat_tcpsck", "tcpsck"),
    ("sockstat_udpsck", "udpsck"),
    ("sockstat_rawsck", "rawsck"),
    ("sockstat_ip_frag", "ip_frag"),
    ("sockstat_tcp_tw", "tcp_tw"),
)
_GAUGE_KEYS = tuple(key for key, _ in _GAUGES) + (
    "mem_total_kb", "mem_swap_total_kb",
)

_ROW = {key: row for row, key in enumerate(COUNTERS)}
_GAUGE_ROW = {key: row for row, key in enumerate(_GAUGE_KEYS)}
_OUT = {name: row for row, name in enumerate(NODE_METRICS)}

_RATE_ROWS = slice(_ROW[_RATES[0][0]], _ROW[_RATES[-1][0]] + 1)
_RATE_OUT = np.array([_OUT[name] for _, name in _RATES], dtype=np.intp)
_GAUGE_OUT = np.array([_OUT[name] for _, name in _GAUGES], dtype=np.intp)

#: Metrics computed one expression each in :meth:`FleetSadc._build`.
_DERIVED = (
    "swap_used_kb", "mem_used_kb", "mem_used_pct", "commit_pct",
    "tps", "await_ms", "disk_util_pct", "avgqu_sz", "svctm_ms",
    "net_rxkb_per_s", "net_txkb_per_s",
)

#: ``NicCounters`` fields the node vector aggregates over interfaces,
#: with the counter row of the array-backed ``eth0`` for each.
_NET_FIELDS = (
    "rx_bytes", "tx_bytes", "rx_packets", "tx_packets", "rx_errs", "tx_errs"
)
_NET_ROWS = tuple(_ROW[f"nic_{field}"] for field in _NET_FIELDS)
_NET_OUT = np.array(
    [_OUT[name] for name in (
        "net_rxpck_per_s", "net_txpck_per_s", "net_rxkb_per_s",
        "net_txkb_per_s", "net_rxerr_per_s", "net_txerr_per_s",
    )],
    dtype=np.intp,
)

if NODE_METRICS[:8] != tuple(f"cpu_{mode}_pct" for mode in _CPU_MODES):
    raise AssertionError("node metric catalog drift: cpu_*_pct order")
_covered = (
    list(NODE_METRICS[:8]) + [name for _, name in _RATES]
    + [name for _, name in _GAUGES] + list(_DERIVED)
)
if sorted(_covered) != sorted(NODE_METRICS):
    raise AssertionError(
        "node metric catalog drift: "
        f"{set(_covered) ^ set(NODE_METRICS) or 'duplicate rows'}"
    )
del _covered


def _cpu_total(counters: np.ndarray) -> np.ndarray:
    """``CpuTicks.total()`` over the cpu rows, same left-to-right order."""
    total = counters[0] + counters[1]
    for row in range(2, len(_CPU_MODES)):
        total = total + counters[row]
    return total


class FleetSadc:
    """The shared collector of one :class:`~repro.sim.vec.FleetState`.

    ``fleet`` is duck-typed: ``a`` (array per ``<group>_<field>``),
    ``ticks`` (completed tick passes) and ``nodes[i].procfs.nics``.
    """

    def __init__(self, fleet: Any) -> None:
        self._fleet = fleet
        # Samplers are reached from per-connection threads when a node
        # host serves pull-mode polls; one lock covers slots and cache.
        self._lock = threading.Lock()
        #: slot -> fleet node index, one slot per sampler handed out.
        self._nodes: List[int] = []
        self._index = np.zeros(0, dtype=np.intp)
        self._primed: List[bool] = []
        self._prev = np.zeros((len(COUNTERS), 0))
        self._prev_time = np.zeros(0)
        #: slot -> {nic name: counters} of a node's non-array interfaces
        #: at its previous poll (only slots that ever saw one).
        self._prev_extra: Dict[int, Dict[str, Tuple[float, ...]]] = {}
        self._key: Optional[Tuple[float, int, int]] = None
        self._cur = self._prev
        self._pos = self._prev
        self._matrix = np.zeros((0, len(NODE_METRICS)))
        #: Matrix passes computed (lock-step polling: one per fleet tick).
        self.passes = 0

    def sampler(self, node_index: int) -> "FleetNodeSampler":
        """A new sampler (its own slot) over fleet node ``node_index``."""
        with self._lock:
            self._nodes.append(int(node_index))
            self._primed.append(False)
            return FleetNodeSampler(self, len(self._nodes) - 1)

    def collect(self, slot: int, now: float) -> Optional[np.ndarray]:
        """``Sadc.collect(now).node_vector()`` for the sampler at ``slot``.

        The returned row belongs to the caller: a pass builds a fresh
        matrix and nothing writes into a served one.
        """
        with self._lock:
            key = (now, self._fleet.ticks, len(self._nodes))
            if key != self._key:
                self._build(now)
                self._key = key
            primed = self._primed[slot]
            elapsed = now - self._prev_time[slot]
            serve = primed and elapsed > 0
            row = self._matrix[slot] if serve else None
            nics = self._fleet.nodes[self._nodes[slot]].procfs.nics
            if len(nics) > 1 or slot in self._prev_extra:
                row = self._with_extra_nics(slot, nics, row, elapsed)
            self._prev[:, slot] = self._cur[:, slot]
            self._prev_time[slot] = now
            self._primed[slot] = True
            return row

    def _grow(self) -> None:
        """Give slots handed out since the last pass their columns."""
        added = len(self._nodes) - self._prev.shape[1]
        self._index = np.array(self._nodes, dtype=np.intp)
        self._prev = np.concatenate(
            [self._prev, np.zeros((len(COUNTERS), added))], axis=1
        )
        self._prev_time = np.concatenate([self._prev_time, np.zeros(added)])

    def _build(self, now: float) -> None:
        """One pass: every slot's node metrics against its own previous.

        Mirrors :meth:`repro.sysstat.sadc.Sadc._node_metrics` expression
        for expression; any edit there must be replicated here.
        """
        if self._prev.shape[1] != len(self._nodes):
            self._grow()
        arrays = self._fleet.a
        index = self._index
        cur = np.stack([arrays[key] for key in COUNTERS])[:, index]
        gauges = np.stack([arrays[key] for key in _GAUGE_KEYS])[:, index]
        prev = self._prev
        # Unprimed and zero-elapsed slots are never served; their lanes
        # only have to stay finite.
        elapsed = now - self._prev_time
        elapsed = np.where(elapsed > 0.0, elapsed, 1.0)
        pos = np.maximum(0.0, cur - prev)
        out = np.zeros((len(NODE_METRICS), len(index)))

        cpu_total = np.maximum(1e-9, _cpu_total(cur) - _cpu_total(prev))
        np.multiply(100.0, pos[:8], out=out[:8])
        out[:8] /= cpu_total

        out[_RATE_OUT] = pos[_RATE_ROWS] / elapsed
        out[_GAUGE_OUT] = gauges[:len(_GAUGES)]

        mem_total = gauges[_GAUGE_ROW["mem_total_kb"]]
        swap_total = gauges[_GAUGE_ROW["mem_swap_total_kb"]]
        mem_used = np.maximum(0.0, mem_total - gauges[_GAUGE_ROW["mem_free_kb"]])
        out[_OUT["swap_used_kb"]] = np.maximum(
            0.0, swap_total - gauges[_GAUGE_ROW["mem_swap_free_kb"]]
        )
        out[_OUT["mem_used_kb"]] = mem_used
        out[_OUT["mem_used_pct"]] = (
            100.0 * mem_used / np.maximum(1.0, mem_total)
        )
        out[_OUT["commit_pct"]] = (
            100.0 * gauges[_GAUGE_ROW["mem_committed_kb"]]
            / np.maximum(1.0, mem_total + swap_total)
        )

        ios = (
            pos[_ROW["disk_reads_completed"]]
            + pos[_ROW["disk_writes_completed"]]
        )
        busy = ios > 0
        io_time = pos[_ROW["disk_io_time_ms"]]
        weighted = pos[_ROW["disk_weighted_io_time_ms"]]
        elapsed_ms = elapsed * 1000.0
        out[_OUT["tps"]] = ios / elapsed
        # Rows start at 0.0, the value of an idle disk (``ios == 0``).
        np.divide(weighted, ios, out=out[_OUT["await_ms"]], where=busy)
        out[_OUT["disk_util_pct"]] = np.minimum(
            100.0, 100.0 * io_time / elapsed_ms
        )
        out[_OUT["avgqu_sz"]] = weighted / elapsed_ms
        np.divide(io_time, ios, out=out[_OUT["svctm_ms"]], where=busy)

        out[_OUT["net_rxkb_per_s"]] = pos[_ROW["nic_rx_bytes"]] / 1024.0 / elapsed
        out[_OUT["net_txkb_per_s"]] = pos[_ROW["nic_tx_bytes"]] / 1024.0 / elapsed

        self._cur = cur
        self._pos = pos
        self._matrix = np.ascontiguousarray(out.T)
        self.passes += 1

    def _with_extra_nics(
        self, slot: int, nics: Dict[str, Any], row: Optional[np.ndarray],
        elapsed: float,
    ) -> Optional[np.ndarray]:
        """Fold a node's non-array interfaces into its network metrics.

        Only ``eth0`` is array-backed; an interface added through
        ``procfs.nic(name)`` is a plain ``NicCounters``.  The scalar
        sampler sums every interface present in both snapshots in dict
        order, so the sums are redone here the same way, ``eth0``
        contributing its clamped deltas from the pass.
        """
        previous = self._prev_extra.get(slot, {})
        self._prev_extra[slot] = {
            name: tuple(getattr(nic, field) for field in _NET_FIELDS)
            for name, nic in nics.items() if name != "eth0"
        }
        if row is None:
            return None
        totals = [0.0] * len(_NET_FIELDS)
        for name in nics:
            if name == "eth0":
                deltas = [self._pos[r, slot] for r in _NET_ROWS]
            elif name in previous:
                before, after = previous[name], self._prev_extra[slot][name]
                deltas = [max(0.0, c - p) for c, p in zip(after, before)]
            else:
                continue
            totals = [total + delta for total, delta in zip(totals, deltas)]
        rx_bytes, tx_bytes, rx_pkts, tx_pkts, rx_errs, tx_errs = totals
        row = row.copy()
        row[_NET_OUT] = (
            rx_pkts / elapsed, tx_pkts / elapsed,
            rx_bytes / 1024.0 / elapsed, tx_bytes / 1024.0 / elapsed,
            rx_errs / elapsed, tx_errs / elapsed,
        )
        return row


class FleetNodeSampler:
    """One node's view of the fleet pass; the fleet twin of ``Sadc``."""

    __slots__ = ("_fleet_sadc", "_slot")

    def __init__(self, fleet_sadc: FleetSadc, slot: int) -> None:
        self._fleet_sadc = fleet_sadc
        self._slot = slot

    def collect_vector(self, now: float) -> Optional[np.ndarray]:
        """The 64 node metrics at ``now``; ``None`` on the priming call."""
        return self._fleet_sadc.collect(self._slot, now)
