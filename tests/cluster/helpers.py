"""Test-side load for node daemons: no simulator behind it."""

import random
import zlib
from typing import Optional

from repro.cluster.load import LOAD_FAULTS

from sysstat.sadc_oracle import SampledProcFS  # tests/sysstat: the per-node sampler

#: Baseline busy fraction of the node's CPUs (plus seeded jitter).
BASELINE_BUSY = 0.12
BASELINE_JITTER = 0.06

#: A full-intensity cpuhog adds this much busy fraction.
CPUHOG_BUSY = 0.70

#: A full-intensity diskhog writes this many sectors per second.
DISKHOG_SECTORS_PER_S = 180_000.0


class SyntheticNodeLoad:
    """Advances one node's cumulative ``/proc`` counters to wall time.

    A hand-tuned counter generator satisfying the duck-typed load
    contract of :class:`repro.rpc.daemons.ClusterNodeDaemon`: baseline
    busy fraction plus jitter, faults as additive bumps.
    """

    def __init__(self, node: str, seed: int = 0, num_cpus: int = 4) -> None:
        self.node = node
        self.procfs = SampledProcFS(num_cpus=num_cpus)
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
        self.active_fault = kind
        self.intensity = max(0.0, min(1.0, intensity))

    def clear(self) -> None:
        self.active_fault = None
        self.intensity = 0.0

    def advance_to(self, now: float) -> None:
        """Accrue counters for the wall interval since the last call."""
        last = self._last
        self._last = now
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
