"""Resource-contention faults (paper Table 2, top half).

* **CPUHog** -- "[Hadoop mailing list, Sep 13 2007] CPU bottleneck from
  running master and slave daemons on same node": an external task that
  consumes 70% of the node's CPU.
* **DiskHog** -- "[Hadoop mailing list, Sep 26 2007] Excessive messages
  logged to file": a sequential disk workload writing 20 GB.
* **PacketLoss** -- "[HADOOP-2956] Degraded network connectivity between
  datanodes results in long block transfer times": 50% packet loss on
  the node's interface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..hadoop.cluster import ExternalLoad, HadoopCluster
from .base import Fault, FaultSpec

GB = 1024.0**3


@dataclass
class CpuHog(Fault):
    """External CPU-intensive task stealing a fraction of all cores."""

    utilization: float = 0.70

    name = "CPUHog"
    reported_failure = (
        "CPU bottleneck from running master and slave daemons on same node"
    )

    def _arm(self, cluster: HadoopCluster, spec: FaultSpec) -> None:
        # A spinner achieving ~70% utilization under fair-share
        # arbitration must *demand* more than 70% of the cores: if the
        # hog demands H and co-located tasks demand T, it receives
        # H/(H+T) of the capacity C.  Demanding u*C/(1-u) yields the
        # target utilization u whenever T <= C (the usual case).
        cores = cluster.config.node_spec.cpu_cores
        demand = self.utilization * cores / max(0.05, 1.0 - self.utilization)
        cluster.add_external_load(
            ExternalLoad(
                node=spec.node,
                pid=cluster.allocate_hog_pid(),
                name="cpuhog",
                cpu_cores=demand,
                start_time=spec.inject_time,
                end_time=spec.clear_time,
            )
        )


@dataclass
class DiskHog(Fault):
    """Sequential writer pushing ``total_gb`` through the node's disk."""

    total_gb: float = 20.0
    #: The hog queues far more I/O than the device can absorb (a blast
    #: of buffered sequential writes); demanding a multiple of the
    #: device bandwidth makes proportional-share arbitration starve
    #: co-located tasks the way a saturating writer does in practice.
    demand_factor: float = 3.0

    name = "DiskHog"
    reported_failure = "Excessive messages logged to file"

    def _arm(self, cluster: HadoopCluster, spec: FaultSpec) -> None:
        rate = (
            cluster.config.node_spec.disk_write_bytes_s * self.demand_factor
        )
        self._device_bytes_s = cluster.config.node_spec.disk_write_bytes_s
        cluster.add_external_load(
            ExternalLoad(
                node=spec.node,
                pid=cluster.allocate_hog_pid(),
                name="diskhog",
                disk_write_bytes_s=rate,
                total_write_bytes=self.total_gb * GB,
                start_time=spec.inject_time,
                end_time=spec.clear_time,
            )
        )

    def ground_truth(self, spec: FaultSpec):
        # The hog ends once its 20 GB is written, so the problematic
        # period does too.  The device is the hog's bottleneck, so the
        # write takes roughly total bytes / device write bandwidth.
        truth = super().ground_truth(spec)
        if truth.clear_time is None:
            device = getattr(self, "_device_bytes_s", 70.0 * 1024 * 1024)
            duration = self.total_gb * GB / device
            truth = replace(truth, clear_time=spec.inject_time + duration)
        return truth


@dataclass
class PacketLoss(Fault):
    """Induced packet loss on the node's network interface."""

    loss_rate: float = 0.50

    name = "PacketLoss"
    reported_failure = (
        "Degraded network connectivity between datanodes results in long "
        "block transfer times (HADOOP-2956)"
    )

    def _arm(self, cluster: HadoopCluster, spec: FaultSpec) -> None:
        node = spec.node
        rate = self.loss_rate
        cluster.at(
            spec.inject_time,
            lambda c: c.network.set_loss_rate(node, rate),
        )
        if spec.clear_time is not None:
            cluster.at(
                spec.clear_time,
                lambda c: c.network.clear_loss_rate(node),
            )
