"""Wall-clock load sources for cluster node daemons' ``/proc`` mirrors.

:class:`FleetLoad` / :class:`FleetNodeLoad` are what node hosts serve:
one shared **Hadoop simulation**
(:class:`~repro.hadoop.cluster.HadoopCluster`) per host process,
advanced to wall-clock time in fixed ticks and serving a ``/proc`` view
per *logical* node.  The node daemons then export genuine Hadoop
telemetry -- tasktracker/datanode activity from a GridMix workload,
arbitration-accurate CPU/disk/net counters -- instead of a synthetic
shape, and faults are the simulator's real :class:`ExternalLoad`
contention hogs (the paper's CPUHog/DiskHog).

The load contract consumed by
:class:`~repro.rpc.daemons.ClusterNodeDaemon` is duck-typed: ``procfs``,
``advance_to(wall_s)``, ``inject(kind, intensity)``, ``clear()`` and
``active_fault``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

__all__ = ["FleetLoad", "FleetNodeLoad", "LOAD_FAULTS"]

#: Injectable perturbations (subset of Table 2's resource faults that
#: make sense without a Hadoop job model).
LOAD_FAULTS = ("cpuhog", "diskhog")

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
