"""Wall-clock load sources for cluster node daemons' ``/proc`` mirrors.

* :class:`FleetLoad` / :class:`FleetNodeLoad` -- what node hosts
  serve: one shared **Hadoop simulation**
  (:class:`~repro.hadoop.cluster.HadoopCluster`) per host process,
  advanced to wall-clock time in fixed ticks and serving a ``/proc``
  view per *logical* node.  The node daemons then export genuine Hadoop
  telemetry -- tasktracker/datanode activity from a GridMix workload,
  arbitration-accurate CPU/disk/net counters -- instead of a synthetic
  shape, and faults are the simulator's real :class:`ExternalLoad`
  contention hogs (the paper's CPUHog/DiskHog).
* :class:`SyntheticNodeLoad` -- a hand-tuned counter generator per
  node: baseline busy fraction plus jitter, faults as additive bumps.
  No node host serves it; it is the dependency-free load the
  ``tests/cluster`` and ``tests/rpc`` daemons are built on.

The load contract consumed by
:class:`~repro.rpc.daemons.ClusterNodeDaemon` is duck-typed: ``procfs``,
``advance_to(wall_s)``, ``inject(kind, intensity)``, ``clear()`` and
``active_fault``.
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Dict, List, Optional, Sequence

from ..sysstat.procfs import SimProcFS

__all__ = ["FleetLoad", "FleetNodeLoad", "SyntheticNodeLoad", "LOAD_FAULTS"]

#: Injectable perturbations (subset of Table 2's resource faults that
#: make sense without a Hadoop job model).
LOAD_FAULTS = ("cpuhog", "diskhog")

#: Baseline busy fraction of the node's CPUs (plus seeded jitter).
BASELINE_BUSY = 0.12
BASELINE_JITTER = 0.06

#: A full-intensity cpuhog adds this much busy fraction.
CPUHOG_BUSY = 0.70

#: A full-intensity diskhog writes this many sectors per second.
DISKHOG_SECTORS_PER_S = 180_000.0


class SyntheticNodeLoad:
    """Advances one node's cumulative ``/proc`` counters to wall time.

    The dependency-free load (no simulator behind it) that the
    ``tests/cluster`` and ``tests/rpc`` daemons are built on.
    """

    def __init__(self, node: str, seed: int = 0, num_cpus: int = 4) -> None:
        self.node = node
        self.procfs = SimProcFS(num_cpus=num_cpus)
        self.active_fault: Optional[str] = None
        self.intensity = 0.0
        self._rng = random.Random(seed if seed else zlib.crc32(node.encode()))
        self._last: Optional[float] = None

    def inject(self, kind: str, intensity: float = 1.0) -> None:
        if kind not in LOAD_FAULTS:
            raise ValueError(
                f"unknown load fault {kind!r} (choices: {LOAD_FAULTS})"
            )
        # Both stores are atomic references; the sampler reading a stale
        # (fault, intensity) pair for one collection interval is within
        # the injection latency the experiments already tolerate.
        self.active_fault = kind  # fpt: noqa[FPT401] -- atomic reference store, stale pair tolerated
        self.intensity = max(0.0, min(1.0, intensity))  # fpt: noqa[FPT401] -- atomic reference store, stale pair tolerated

    def clear(self) -> None:
        self.active_fault = None  # fpt: noqa[FPT401] -- atomic reference store, stale pair tolerated
        self.intensity = 0.0  # fpt: noqa[FPT401] -- atomic reference store, stale pair tolerated

    def advance_to(self, now: float) -> None:
        """Accrue counters for the wall interval since the last call."""
        last = self._last
        self._last = now  # fpt: noqa[FPT401] -- single writer: only the node's rpc_sample connection thread advances
        if last is None:
            return
        dt = now - last
        if dt <= 0:
            return
        fs = self.procfs
        cores = fs.num_cpus
        busy = BASELINE_BUSY + BASELINE_JITTER * self._rng.random()
        if self.active_fault == "cpuhog":
            busy += CPUHOG_BUSY * self.intensity
        busy = min(0.95, busy)
        busy_cores = dt * cores * busy
        fs.cpu.user += busy_cores * 0.7
        fs.cpu.system += busy_cores * 0.3
        fs.cpu.idle += dt * cores * (1.0 - busy)
        fs.loadavg.one = busy * cores
        fs.loadavg.runq_sz = max(0.0, busy * cores - 1.0)
        fs.stat.ctxt += dt * (800.0 + 4000.0 * busy)
        fs.stat.intr += dt * (500.0 + 2000.0 * busy)
        # Modest baseline disk/network churn so rates are nonzero.
        writes_per_s = 12.0 + 6.0 * self._rng.random()
        sectors_per_s = writes_per_s * 64.0
        io_frac = 0.02
        if self.active_fault == "diskhog":
            sectors_per_s += DISKHOG_SECTORS_PER_S * self.intensity
            writes_per_s += 400.0 * self.intensity
            io_frac = min(0.98, io_frac + 0.9 * self.intensity)
        fs.disk.writes_completed += dt * writes_per_s
        fs.disk.sectors_written += dt * sectors_per_s
        fs.disk.io_time_ms += dt * 1000.0 * io_frac
        fs.disk.weighted_io_time_ms += dt * 1000.0 * io_frac * 1.5
        nic = fs.nic()
        nic.rx_bytes += dt * 40_000.0
        nic.tx_bytes += dt * 25_000.0
        nic.rx_packets += dt * 60.0
        nic.tx_packets += dt * 45.0


#: Simulated seconds advanced per fleet tick.
FLEET_TICK_S = 0.5

#: Ticks one ``advance_to`` call may run before re-basing: bounds the
#: stall when a host process was paused (SIGSTOP, debugger, swap) for a
#: long wall interval -- we skip ahead rather than replay the gap.
MAX_TICKS_PER_ADVANCE = 40

#: A full-intensity fleet cpuhog demands this fraction of the node's
#: cores (contention with real Hadoop tasks does the rest, exactly like
#: the paper's CPUHog fault).
FLEET_CPUHOG_CORES_FRAC = 0.85

#: A full-intensity fleet diskhog writes this many bytes per second.
FLEET_DISKHOG_BYTES_S = 60e6


class FleetLoad:
    """One shared vectorized Hadoop fleet serving many logical nodes.

    A host process (``repro cluster node --names a,b,c``) builds one
    ``FleetLoad`` over all its logical node names; each node daemon gets
    a :class:`FleetNodeLoad` view mapped onto one simulated slave.  The
    fleet advances to wall-clock time in fixed :data:`FLEET_TICK_S`
    steps under a lock -- whichever view's ``advance_to`` arrives first
    at a tick boundary runs the tick for everyone, later callers with
    the same wall time are no-ops -- so the struct-of-arrays engine is
    ticked once per interval regardless of how many logical nodes the
    host packs.

    A light GridMix workload is scheduled at construction so the slaves
    run genuine tasktracker/datanode activity: the counters the node
    daemons export are the simulator's arbitration-accurate ``/proc``
    state, not a synthetic shape.
    """

    def __init__(self, node_names: Sequence[str], seed: int = 1,
                 tick_s: float = FLEET_TICK_S, workload: bool = True) -> None:
        from ..hadoop.cluster import ClusterConfig, HadoopCluster

        names = list(node_names)
        if not names:
            raise ValueError("FleetLoad needs at least one node name")
        self.cluster = HadoopCluster(
            ClusterConfig(num_slaves=len(names), seed=(seed or 1))
        )
        self.tick_s = float(tick_s)
        self._slave_of: Dict[str, str] = dict(
            zip(names, self.cluster.slave_names)
        )
        self._lock = threading.Lock()
        self._origin_wall: Optional[float] = None
        self.ticks = 0
        if workload:
            self._schedule_workload(seed or 1)

    def _schedule_workload(self, seed: int) -> None:
        from ..workloads.gridmix import GridMixConfig, generate_workload

        config = GridMixConfig(
            duration_s=3600.0,
            mean_interarrival_s=30.0,
            initial_jobs=max(1, len(self._slave_of) // 8),
            seed=seed,
        )
        for spec in generate_workload(config).jobs:
            self.cluster.schedule_job(spec)

    def advance_to(self, wall: float) -> None:
        """Tick the shared fleet up to wall-clock time (idempotent)."""
        with self._lock:
            if self._origin_wall is None:
                self._origin_wall = wall
                return
            target = wall - self._origin_wall
            ticks = 0
            while (self.cluster.time + self.tick_s <= target
                   and ticks < MAX_TICKS_PER_ADVANCE):
                self.cluster.step(self.tick_s)
                ticks += 1
            self.ticks += ticks
            if self.cluster.time + self.tick_s <= target:
                # Still behind after the cap: the host was paused for a
                # long wall interval.  Skip ahead instead of replaying.
                self._origin_wall = wall - self.cluster.time

    def sample_time(self) -> float:
        """The wall timestamp the sim state corresponds to.

        The fleet advances in :data:`FLEET_TICK_S` quanta, so this lags
        the true wall clock by up to one tick; samplers collect against
        it so counter deltas always span whole ticks.
        """
        with self._lock:
            return (self._origin_wall or 0.0) + self.cluster.time

    def view(self, name: str) -> "FleetNodeLoad":
        """The per-logical-node load facade for ``name``."""
        return FleetNodeLoad(self, name, self._slave_of[name])


class FleetNodeLoad:
    """One logical node's window onto the shared :class:`FleetLoad`.

    Satisfies the node-daemon load contract: ``procfs`` is the slave's
    :class:`~repro.sim.vec.VecProcFS` (array-backed, so the daemon's
    sampler joins the fleet's one-pass ``sadc``), ``advance_to``
    delegates to the shared fleet,
    and ``inject``/``clear`` run the simulator's real
    :class:`~repro.hadoop.cluster.ExternalLoad` contention faults
    against this node only.
    """

    def __init__(self, fleet: FleetLoad, name: str, slave: str) -> None:
        self.node = name
        self._fleet = fleet
        self._slave = slave
        self.procfs = fleet.cluster.procfs(slave)
        self.active_fault: Optional[str] = None
        self._hog = None

    def advance_to(self, now: float) -> None:
        self._fleet.advance_to(now)

    def sample_time(self) -> float:
        return self._fleet.sample_time()

    def inject(self, kind: str, intensity: float = 1.0) -> None:
        if kind not in LOAD_FAULTS:
            raise ValueError(
                f"unknown load fault {kind!r} (choices: {LOAD_FAULTS})"
            )
        from ..hadoop.cluster import ExternalLoad

        intensity = max(0.0, min(1.0, float(intensity)))
        cluster = self._fleet.cluster
        with self._fleet._lock:
            self._remove_hog_locked()
            spec = cluster.config.node_spec
            hog = ExternalLoad(
                node=self._slave,
                pid=cluster.allocate_hog_pid(),
                name=kind,
                cpu_cores=(
                    spec.cpu_cores * FLEET_CPUHOG_CORES_FRAC * intensity
                    if kind == "cpuhog" else 0.0
                ),
                disk_write_bytes_s=(
                    FLEET_DISKHOG_BYTES_S * intensity
                    if kind == "diskhog" else 0.0
                ),
                start_time=cluster.time,
            )
            cluster.add_external_load(hog)
            self._hog = hog
        self.active_fault = kind  # fpt: noqa[FPT401] -- atomic reference store, stale read tolerated for one interval

    def clear(self) -> None:
        with self._fleet._lock:
            self._remove_hog_locked()
        self.active_fault = None  # fpt: noqa[FPT401] -- atomic reference store, stale read tolerated for one interval

    def _remove_hog_locked(self) -> None:
        if self._hog is None:
            return
        loads: List = self._fleet.cluster.external_loads
        try:
            loads.remove(self._hog)
        except ValueError:
            pass
        self._hog = None  # fpt: noqa[FPT401] -- every caller holds the fleet lock (the _locked suffix is the contract)
