"""Real-process faults for the live cluster deployment.

The Table 2 faults perturb a *simulated* Hadoop cluster; cluster mode
adds a fault that acts on an actual operating-system process: killing
a live collection daemon with SIGKILL.  The paper's
deployment tolerates exactly this -- a crashed ``sadc_rpcd`` is
restarted and the control node reconnects -- and the cluster bench
measures how long that takes (``reconnect.downtime_s`` in
``BENCH_cluster.json``).

:class:`DaemonKill` is intentionally *not* in ``FAULT_CATALOG``: the
catalog enumerates the simulated Table 2 faults consumed by the
experiment engine and the generated fpt-core config, while this fault
needs a running cluster state directory, not a ``HadoopCluster``.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

from ..cluster.state import list_runtimes, pid_alive

__all__ = ["DaemonKill"]


class DaemonKill:
    """SIGKILL one live collection daemon; verify respawn + republish.

    Usage::

        fault = DaemonKill(state_dir, "node-02")
        killed_pid = fault.inject()
        fault.wait_respawned(timeout_s=30.0)   # new pid published

    The class only touches pids it read from the cluster's own runtime
    files, so it cannot kill anything the launcher does not own.
    """

    name = "DaemonKill"
    reported_failure = "Collection daemon process crash (paper section 4.3)"

    def __init__(self, state_dir: str, node: str) -> None:
        self.state_dir = state_dir
        self.node = node
        self.killed_pid: Optional[int] = None
        self.killed_wall: Optional[float] = None

    def inject(self) -> int:
        """Kill the daemon; returns the pid that was killed."""
        runtime = list_runtimes(self.state_dir, role="node").get(self.node)
        if runtime is None:
            raise LookupError(
                f"no published collection daemon named {self.node!r} "
                f"in {self.state_dir}"
            )
        os.kill(runtime.pid, signal.SIGKILL)
        self.killed_pid = runtime.pid
        self.killed_wall = time.time()
        return runtime.pid

    def respawned(self) -> Optional[int]:
        """The respawned daemon's pid, or ``None`` while still down."""
        runtime = list_runtimes(self.state_dir, role="node").get(self.node)
        if runtime is None or runtime.pid == self.killed_pid:
            return None
        return runtime.pid if pid_alive(runtime.pid) else None

    def wait_respawned(self, timeout_s: float = 30.0,
                       poll_s: float = 0.25) -> Optional[int]:
        """Block until a fresh pid is published; ``None`` on timeout."""
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            pid = self.respawned()
            if pid is not None:
                return pid
            time.sleep(poll_s)
        return self.respawned()

    def downtime_s(self) -> Optional[float]:
        """Seconds from the kill to now (caller stops the clock)."""
        if self.killed_wall is None:
            return None
        return time.time() - self.killed_wall
