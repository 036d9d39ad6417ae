"""Parity helpers: :class:`HadoopCluster` against the per-node reference.

:func:`tick_parity_mismatches` steps both through the same busy
workload and compares every node's full procfs snapshot, every tick --
an edit to one term of ``FleetState.end_tick_all`` or
``TickContext.arbitrate`` that the reference (``reference.py``) does
not share fails here.
"""

import dataclasses
from typing import List, Sequence

from repro.faults import FaultSpec, make_fault
from repro.hadoop import MB, ClusterConfig, HadoopCluster, JobSpec

from sysstat.sadc_oracle import snapshot  # tests/sysstat: detached /proc copies

from .reference import ReferenceCluster


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
    num_slaves: int, dts: Sequence[float] = (1.0,) * 90, seed: int = 11
) -> List[str]:
    """(tick, node) labels whose procfs snapshots differ from the reference.

    Both clusters step the same busy workload (jobs, CPU/disk hogs,
    packet loss) one tick of each ``dt`` in ``dts``; every node's full
    snapshot -- all counter groups, process table, NICs -- must compare
    exactly (float equality, i.e. bit-for-bit for finite values) on
    every tick.
    """
    config = ClusterConfig(num_slaves=num_slaves, seed=seed)
    reference = ReferenceCluster(config)
    cluster = HadoopCluster(config)
    exercise(reference)
    exercise(cluster)
    mismatches: List[str] = []
    for tick, dt in enumerate(dts):
        reference.step(dt)
        cluster.step(dt)
        for node in reference.nodes:
            a = dataclasses.asdict(snapshot(reference.procfs(node)))
            b = dataclasses.asdict(snapshot(cluster.procfs(node)))
            if a != b:
                mismatches.append(f"tick {tick} node {node}")
    return mismatches
