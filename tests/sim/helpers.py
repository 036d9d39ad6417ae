"""The per-node reference tick and the parity helpers built on it.

:class:`ReferenceCluster` steps a Hadoop cluster one node at a time:
plain :class:`SimNode` nodes, one ``TickContext`` demand call per daemon
and heartbeat, one ``SimNode.end_tick`` per node.  It is the oracle
:func:`tick_parity_mismatches` compares :class:`HadoopCluster` against,
every node's full procfs snapshot, every tick -- an edit to one term of
``FleetState.end_tick_all`` or ``VecTickContext.arbitrate`` fails here.
Nothing in ``src/`` can select it.
"""

import dataclasses
from typing import List

from repro.faults import FaultSpec, make_fault
from repro.hadoop import MB, ClusterConfig, HadoopCluster, JobSpec
from repro.hadoop.mapreduce import HEARTBEAT_BYTES, TaskTracker
from repro.sim.engine import TickContext
from repro.sim.node import SimNode

from sysstat.sadc_oracle import snapshot  # tests/sysstat: detached /proc copies


class ReferenceCluster(HadoopCluster):
    """``HadoopCluster`` on per-node ``SimNode`` objects and scalar math."""

    def _build_nodes(self, node_names):
        cfg = self.config
        self.fleet = None
        return {
            name: SimNode(name, cfg.node_spec, seed=cfg.seed * 1000 + i)
            for i, name in enumerate(node_names)
        }

    def _heartbeat(self, tracker: TaskTracker, ctx: TickContext, now: float):
        if not tracker.heartbeat_due(now):
            return
        ctx.demand_transfer(
            tracker.node_name, self.MASTER, HEARTBEAT_BYTES, tag="heartbeat"
        )
        ctx.demand_transfer(
            self.MASTER, tracker.node_name, HEARTBEAT_BYTES, tag="heartbeat"
        )
        tracker.heartbeat_pull(now)

    def step(self, dt: float = 1.0) -> None:
        self._run_due_actions()
        self._submit_due_jobs()
        now = self.time
        for node in self.nodes.values():
            node.begin_tick()

        ctx = TickContext(self.nodes, self.network, dt)
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


def exercise(cluster: HadoopCluster) -> None:
    """Submit jobs and arm faults so parity covers the busy paths."""
    slaves = list(cluster.slave_names)
    for i in range(2):
        cluster.submit_job(
            JobSpec(
                job_id=f"200807070001_{i:04d}",
                name="parity",
                input_bytes=192.0 * MB,
                num_reduces=2,
            )
        )
    make_fault("CPUHog").arm(
        cluster, FaultSpec(node=slaves[1], inject_time=20.0)
    )
    make_fault("DiskHog").arm(
        cluster, FaultSpec(node=slaves[2], inject_time=25.0)
    )
    cluster.network.set_loss_rate(slaves[3], 0.3)


def tick_parity_mismatches(
    num_slaves: int, ticks: int = 90, seed: int = 11
) -> List[str]:
    """(tick, node) labels whose procfs snapshots differ from the reference.

    Both clusters step the same busy workload (jobs, CPU/disk hogs,
    packet loss) tick by tick; every node's full snapshot -- all counter
    groups, process table, NICs -- must compare exactly (float equality,
    i.e. bit-for-bit for finite values) on every tick.
    """
    config = ClusterConfig(num_slaves=num_slaves, seed=seed)
    reference = ReferenceCluster(config)
    cluster = HadoopCluster(config)
    exercise(reference)
    exercise(cluster)
    mismatches: List[str] = []
    for tick in range(ticks):
        reference.step(1.0)
        cluster.step(1.0)
        for node in reference.nodes:
            a = dataclasses.asdict(snapshot(reference.procfs(node)))
            b = dataclasses.asdict(snapshot(cluster.procfs(node)))
            if a != b:
                mismatches.append(f"tick {tick} node {node}")
    return mismatches
