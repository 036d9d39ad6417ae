"""Resource specifications and the TCP response to packet loss.

The cluster simulator models each node as four contended resources --
CPU cores, one disk, one NIC, and memory.  Every simulation tick,
activities (task phases, daemons, injected resource hogs) declare demands
against their node; :class:`repro.sim.engine.TickContext` grants each
demand its proportional share of the capacity.  Contention therefore slows *everything* on an
oversubscribed node, which is exactly the failure manifestation the
paper's resource-contention faults (CPUHog, DiskHog) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of a simulated node.

    Defaults approximate the paper's testbed: Amazon EC2 Large instances
    with two dual-core CPUs and 7.5 GB of RAM.
    """

    cpu_cores: float = 4.0
    memory_mb: float = 7680.0
    disk_read_mb_s: float = 90.0
    disk_write_mb_s: float = 70.0
    nic_mbit_s: float = 1000.0

    @property
    def nic_bytes_s(self) -> float:
        return self.nic_mbit_s * 1e6 / 8.0

    @property
    def disk_read_bytes_s(self) -> float:
        return self.disk_read_mb_s * 1024.0 * 1024.0

    @property
    def disk_write_bytes_s(self) -> float:
        return self.disk_write_mb_s * 1024.0 * 1024.0


def tcp_goodput_factor(loss_rate):
    """Multiplier on achievable TCP throughput under packet loss.

    TCP throughput collapses super-linearly with loss (the Mathis model
    scales as ``1/sqrt(p)`` for small ``p`` and far worse once retransmit
    timeouts dominate).  We use a simple rational approximation that is
    exact at the endpoints (1.0 at no loss, ~0 at total loss) and yields
    roughly a 20x slowdown at the paper's injected 50% loss -- enough to
    reproduce the "long block transfer times" of HADOOP-2956.  Applies
    elementwise to an array of per-transfer loss rates.
    """
    p = np.minimum(1.0, np.maximum(0.0, loss_rate))
    return (1.0 - p) ** 2 / (1.0 + 10.0 * p)
