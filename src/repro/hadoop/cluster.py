"""The assembled Hadoop cluster simulator.

:class:`HadoopCluster` wires the substrate together the way the paper's
testbed was wired: a master node running the JobTracker and NameNode,
plus N slave nodes each running a TaskTracker and a DataNode.  Each call
to :meth:`HadoopCluster.step` advances simulated time by one tick:

1. every node's per-tick accumulators are reset;
2. tasktrackers heartbeat (receiving task assignments) and all running
   activities -- task attempts, daemons, injected resource hogs --
   declare resource demands;
3. the engine arbitrates CPU, disk and network proportionally;
4. activities consume their grants, advancing task state machines and
   emitting Hadoop log lines;
5. every node folds the tick into its ``/proc`` counters.

All per-node simulator state lives in one struct-of-arrays
:class:`~repro.sim.vec.FleetState`, so steps 1, 3 and 5 and the daemons'
share of step 2 are fleet-wide array passes.

Fault hooks: :meth:`add_external_load` (CPUHog/DiskHog),
:meth:`set_bug` (the three application bugs), and the network model's
``set_loss_rate`` (PacketLoss).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..sim.engine import TickContext
from ..sim.network import NetworkModel
from ..sim.node import SimNode
from ..sim.resources import NodeSpec
from ..sim.vec import FleetState, VecSimNode, VecTickContext
from .hdfs import DataNode, NameNode
from .job import JobSpec
from .logs import DaemonLog
from .mapreduce import (
    HEARTBEAT_BYTES,
    BugKind,
    JobState,
    JobTracker,
    TaskTracker,
)


@dataclass
class ExternalLoad:
    """A non-Hadoop process competing for a node's resources.

    This is the vehicle for the paper's resource-contention faults: a
    CPUHog is an external load with ``cpu_cores`` set; a DiskHog is one
    with ``disk_write_bytes_s`` and a ``total_write_bytes`` budget (the
    paper's 20 GB sequential write).
    """

    node: str
    pid: int
    name: str = "hog"
    cpu_cores: float = 0.0
    disk_read_bytes_s: float = 0.0
    disk_write_bytes_s: float = 0.0
    total_write_bytes: Optional[float] = None
    rss_kb: float = 50e3
    start_time: float = 0.0
    end_time: Optional[float] = None
    written_bytes: float = 0.0
    _cpu = None
    _disk = None

    def active(self, now: float) -> bool:
        if now < self.start_time:
            return False
        if self.end_time is not None and now >= self.end_time:
            return False
        if (
            self.total_write_bytes is not None
            and self.written_bytes >= self.total_write_bytes
        ):
            return False
        return True

    def demand(self, ctx: TickContext, now: float) -> None:
        self._cpu = None
        self._disk = None
        if not self.active(now):
            return
        if self.cpu_cores > 0:
            self._cpu = ctx.demand_cpu(self.node, self.pid, self.cpu_cores)
        write = self.disk_write_bytes_s * ctx.dt
        if self.total_write_bytes is not None:
            write = min(write, self.total_write_bytes - self.written_bytes)
        read = self.disk_read_bytes_s * ctx.dt
        if write > 0 or read > 0:
            self._disk = ctx.demand_disk(
                self.node, self.pid, read_bytes=read, write_bytes=write
            )

    def advance(self, now: float, dt: float) -> None:
        if self._cpu is not None:
            self._cpu.book_all()
        if self._disk is not None:
            self.written_bytes += self._disk.write_granted


@dataclass
class ClusterConfig:
    """Sizing and seeding for a simulated cluster."""

    num_slaves: int = 10
    node_spec: NodeSpec = field(default_factory=NodeSpec)
    replication: int = 3
    seed: int = 42


class HadoopCluster:
    """A complete simulated Hadoop 0.18 cluster."""

    MASTER = "master"

    #: Idle CPU overhead of the co-located DataNode daemon, cores.
    DATANODE_DAEMON_CORES = 0.015

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        cfg = self.config
        self.time = 0.0
        self.slave_names: List[str] = [
            f"slave{i + 1:02d}" for i in range(cfg.num_slaves)
        ]
        self.nodes: Dict[str, SimNode] = self._build_nodes(
            [self.MASTER] + self.slave_names
        )
        self.network = NetworkModel(
            {name: cfg.node_spec.nic_bytes_s for name in self.nodes}
        )

        # Logs: one tasktracker and one datanode log per slave.
        self.tt_logs: Dict[str, DaemonLog] = {
            name: DaemonLog(name, "tasktracker") for name in self.slave_names
        }
        self.dn_logs: Dict[str, DaemonLog] = {
            name: DaemonLog(name, "datanode") for name in self.slave_names
        }

        # HDFS.
        self.datanodes: Dict[str, DataNode] = {}
        for i, name in enumerate(self.slave_names):
            ip = f"10.0.0.{i + 2}"
            self.datanodes[name] = DataNode(name, self.dn_logs[name], ip)
        self.namenode = NameNode(
            self.datanodes, replication=cfg.replication, seed=cfg.seed + 7
        )

        # MapReduce.
        self.jobtracker = JobTracker(self.MASTER, self.namenode)
        self.trackers: Dict[str, TaskTracker] = {}
        for i, name in enumerate(self.slave_names):
            pid_base = 1000 * (i + 1)
            tracker = TaskTracker(
                node_name=name,
                sim_node=self.nodes[name],
                log=self.tt_logs[name],
                jobtracker=self.jobtracker,
                namenode=self.namenode,
                datanodes=self.datanodes,
                bug_for=self.bug_for,
                pid_base=pid_base,
            )
            self.trackers[name] = tracker
            self.jobtracker.register_tracker(tracker)
            # The DataNode daemon runs beside the TaskTracker.
            dn_pid = tracker.pid + 1
            self.nodes[name].ensure_process(
                dn_pid, "DataNode", rss_kb=150e3, threads=20.0, fds=90.0
            )

        # Fault state.
        self.external_loads: List[ExternalLoad] = []
        self._bugs: Dict[str, List[Tuple[BugKind, float, Optional[float]]]] = {}
        self._pending_jobs: List[JobSpec] = []
        self._next_hog_pid = 90000
        self._scheduled_actions: List[Tuple[float, Callable[["HadoopCluster"], None]]] = []

    def _build_nodes(self, node_names: List[str]) -> Dict[str, SimNode]:
        """Master + slaves as rows of one :class:`FleetState`."""
        cfg = self.config
        self.fleet = FleetState(node_names)
        self._slave_idx = np.array(
            [self.fleet.index[name] for name in self.slave_names],
            dtype=np.intp,
        )
        return {
            name: VecSimNode(
                name, cfg.node_spec, cfg.seed * 1000 + i, self.fleet, i
            )
            for i, name in enumerate(node_names)
        }

    # -- fault hooks -------------------------------------------------------------

    def add_external_load(self, load: ExternalLoad) -> None:
        self.external_loads.append(load)
        self.nodes[load.node].ensure_process(
            load.pid, load.name, rss_kb=load.rss_kb, threads=1.0
        )

    def allocate_hog_pid(self) -> int:
        self._next_hog_pid += 1
        return self._next_hog_pid

    def set_bug(
        self,
        node: str,
        kind: BugKind,
        start_time: float,
        end_time: Optional[float] = None,
    ) -> None:
        self._bugs.setdefault(node, []).append((kind, start_time, end_time))

    def bug_for(self, node: str, now: float) -> Optional[BugKind]:
        for kind, start, end in self._bugs.get(node, []):
            if now >= start and (end is None or now < end):
                return kind
        return None

    def at(self, when: float, action: Callable[["HadoopCluster"], None]) -> None:
        """Run ``action(cluster)`` at the start of the tick at ``when``."""
        self._scheduled_actions.append((when, action))
        self._scheduled_actions.sort(key=lambda item: item[0])

    def _run_due_actions(self) -> None:
        while self._scheduled_actions and self._scheduled_actions[0][0] <= self.time:
            _, action = self._scheduled_actions.pop(0)
            action(self)

    # -- workload ------------------------------------------------------------------

    def submit_job(self, spec: JobSpec) -> JobState:
        """Submit a job right now."""
        return self.jobtracker.submit(spec, self.time)

    def schedule_job(self, spec: JobSpec) -> None:
        """Queue a job for submission at ``spec.submit_time``."""
        self._pending_jobs.append(spec)
        self._pending_jobs.sort(key=lambda s: s.submit_time)

    def _submit_due_jobs(self) -> None:
        while self._pending_jobs and self._pending_jobs[0].submit_time <= self.time:
            spec = self._pending_jobs.pop(0)
            self.jobtracker.submit(spec, self.time)

    # -- the tick loop ----------------------------------------------------------------

    def step(self, dt: float = 1.0) -> None:
        """Advance the whole cluster by one tick of ``dt`` seconds.

        Per-node declaration order is fixed -- heartbeat transfers in
        rotated order, then per node [tasktracker daemon, running
        attempts, datanode daemon], then external loads -- so the
        bincount-based arbitration sees the per-node operand sequences
        the reference tick (``tests/sim/helpers.py``) declares one call
        at a time (see repro.sim.vec).
        """
        self._run_due_actions()
        self._submit_due_jobs()
        now = self.time
        fleet = self.fleet
        fleet.begin_tick_all()

        ctx = VecTickContext(self.nodes, self.network, dt, fleet)
        # Rotate heartbeat order each tick: real trackers contact the
        # JobTracker out of phase, so no node systematically gets first
        # pick of pending tasks.
        tracker_list = [self.trackers[name] for name in self.slave_names]
        offset = int(now) % max(1, len(tracker_list))
        rotated = tracker_list[offset:] + tracker_list[:offset]
        due = [t for t in rotated if t.heartbeat_due(now)]
        if due:
            master_idx = fleet.index[self.MASTER]
            slave_idx = np.array(
                [fleet.index[t.node_name] for t in due], dtype=np.intp
            )
            # Interleave (slave->master, master->slave) pairs exactly as
            # a per-tracker loop would declare them.
            src = np.empty(2 * len(due), dtype=np.intp)
            dst = np.empty(2 * len(due), dtype=np.intp)
            src[0::2] = slave_idx
            src[1::2] = master_idx
            dst[0::2] = master_idx
            dst[1::2] = slave_idx
            ctx.demand_transfer_bulk(src, dst, HEARTBEAT_BYTES)
            for tracker in due:
                tracker.heartbeat_pull(now)

        ctx.demand_cpu_bulk(self._slave_idx, TaskTracker.DAEMON_CORES)
        for tracker in tracker_list:
            if tracker.running:
                tracker.demand_tasks(ctx, now)
        # The co-located DataNode daemon's idle overhead.
        ctx.demand_cpu_bulk(self._slave_idx, self.DATANODE_DAEMON_CORES)
        for load in self.external_loads:
            load.demand(ctx, now)

        ctx.arbitrate()

        for tracker in tracker_list:
            if tracker.running:
                tracker.advance(now, dt)
        for load in self.external_loads:
            load.advance(now, dt)

        fleet.end_tick_all(dt)
        self.time = now + dt

    def run_until(
        self,
        end_time: float,
        dt: float = 1.0,
        on_tick: Optional[Callable[["HadoopCluster"], None]] = None,
    ) -> None:
        """Step until simulated time reaches ``end_time``."""
        while self.time < end_time - 1e-9:
            self.step(dt)
            if on_tick is not None:
                on_tick(self)

    # -- introspection -------------------------------------------------------------------

    def procfs(self, node: str):
        return self.nodes[node].procfs

    def running_attempts(self, node: str) -> int:
        return len(self.trackers[node].running)

    def jobs_completed(self) -> int:
        return len(self.jobtracker.completed_jobs)

    def jobs_succeeded(self) -> int:
        from .mapreduce import JobStatus

        return sum(
            1
            for job in self.jobtracker.completed_jobs
            if job.status is JobStatus.SUCCEEDED
        )


class BlacklistController:
    """Mitigation controller for the ``mitigate`` module (paper section 5).

    Translates a fingerpointing alarm into Hadoop's operational remedy:
    blacklist the sick TaskTracker at the JobTracker so new tasks route
    around it, while its DataNode keeps serving blocks.
    """

    def __init__(self, cluster: HadoopCluster) -> None:
        self._cluster = cluster
        self.mitigated: List[Tuple[float, str]] = []

    def mitigate(self, node: str, now: float) -> None:
        self._cluster.jobtracker.blacklist(node)
        self.mitigated.append((now, node))
