"""Spawn and supervise the live cluster: ``repro cluster up``.

The launcher starts the central analysis daemon and the collection
daemons as real OS processes (``python -m repro cluster node/central``),
then supervises them.  Logical node daemons are packed into *host*
processes (``per_host`` logical nodes per process, each with its
own RPC server and runtime file, one shared vectorized fleet) so node
counts in the dozens-to-hundreds stay launchable on one box: 100 nodes
is ~13 host processes, not 100.

A host that dies (crash or injected kill) is respawned with the same
logical names and seed, and the fresh process republishes its runtime
files so the central reconnects -- the reconnect-after-kill path the
bench measures.  The launcher itself winds down when the cluster's stop
marker appears (written by ``repro cluster drive --shutdown``), when the
central daemon exits, or on Ctrl-C.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from .state import list_runtimes, request_stop, stop_requested

__all__ = ["ClusterLauncher", "node_name"]

#: Supervisor poll interval.
SUPERVISE_S = 0.25

#: How long `wait_ready` allows for every daemon to publish its ports.
READY_TIMEOUT_S = 30.0

#: Default logical node daemons packed per host process.
DEFAULT_PER_HOST = 8


def node_name(index: int) -> str:
    return f"node-{index:02d}"


def _spawn(args: List[str], log_path: str) -> subprocess.Popen:
    # Popen dups the descriptor, so the parent's handle can close right
    # away; the child keeps appending to the log.
    with open(log_path, "ab") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=log, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": _pythonpath()},
        )


def _pythonpath() -> str:
    """Ensure children can import ``repro`` exactly like this process."""
    src = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    if src in existing.split(os.pathsep):
        return existing
    return f"{src}{os.pathsep}{existing}" if existing else src


class ClusterLauncher:
    """Owns the daemon subprocesses of one cluster deployment.

    ``per_host`` packs that many logical node daemons into each host
    process.
    """

    def __init__(self, state_dir: str, nodes: int = 3,
                 interval_s: float = 0.5, seed: int = 1,
                 max_frame_bytes: Optional[int] = None,
                 per_host: int = DEFAULT_PER_HOST,
                 sample_interval_s: Optional[float] = None) -> None:
        self.state_dir = os.path.abspath(state_dir)
        self.nodes = nodes
        self.interval_s = interval_s
        self.seed = seed
        self.max_frame_bytes = max_frame_bytes
        self.per_host = max(1, int(per_host))
        self.sample_interval_s = (
            sample_interval_s if sample_interval_s is not None
            else max(0.25, interval_s)
        )
        self._children: Dict[str, subprocess.Popen] = {}
        #: host key -> the node indices that host serves (respawn spec).
        self._host_groups: Dict[str, List[int]] = {}
        self.respawns = 0
        os.makedirs(self.state_dir, exist_ok=True)

    # -- spawning ------------------------------------------------------------

    def _common_flags(self) -> List[str]:
        flags = ["--dir", self.state_dir]
        if self.max_frame_bytes is not None:
            flags += ["--max-frame-bytes", str(self.max_frame_bytes)]
        return flags

    def host_groups(self) -> List[List[int]]:
        """Node indices grouped ``per_host`` per host process."""
        indices = list(range(1, self.nodes + 1))
        return [
            indices[i:i + self.per_host]
            for i in range(0, len(indices), self.per_host)
        ]

    def spawn_host(self, indices: List[int]) -> subprocess.Popen:
        """Spawn one host process serving the given node indices."""
        names = [node_name(i) for i in indices]
        key = f"host:{names[0]}"
        child = _spawn(
            ["cluster", "node", "--names", ",".join(names),
             "--seed", str(self.seed + indices[0]),
             "--sample-interval", str(self.sample_interval_s),
             *self._common_flags()],
            os.path.join(self.state_dir, f"{names[0]}.log"),
        )
        self._children[key] = child
        self._host_groups[key] = list(indices)
        return child

    def spawn_node(self, index: int) -> subprocess.Popen:
        """Spawn a single-node host (used for respawns of v1 layouts)."""
        return self.spawn_host([index])

    def spawn_central(self) -> subprocess.Popen:
        child = _spawn(
            ["cluster", "central", "--interval", str(self.interval_s),
             *self._common_flags()],
            os.path.join(self.state_dir, "central.log"),
        )
        self._children["central"] = child
        return child

    def up(self) -> None:
        """Start the central daemon plus every collection daemon host."""
        self.spawn_central()
        for indices in self.host_groups():
            self.spawn_host(indices)

    def wait_ready(self, timeout_s: float = READY_TIMEOUT_S) -> bool:
        """Block until every daemon has published its runtime file."""
        deadline = time.time() + timeout_s
        expected = {node_name(i) for i in range(1, self.nodes + 1)}
        expected.add("central")
        while time.time() < deadline:
            published = set(list_runtimes(self.state_dir))
            if expected <= published:
                return True
            if any(
                child.poll() is not None for child in self._children.values()
            ):
                return False  # a daemon died before publishing
            time.sleep(0.1)
        return False

    # -- supervision ---------------------------------------------------------

    def supervise(self) -> int:
        """Respawn dead collection hosts until the cluster stops.

        Returns an exit code: 0 on a requested stop, 1 when the central
        daemon died on its own.
        """
        try:
            while True:
                if stop_requested(self.state_dir):
                    self.shutdown()
                    return 0
                central = self._children.get("central")
                if central is not None and central.poll() is not None:
                    self.shutdown()
                    return 1
                for key, child in list(self._children.items()):
                    if key == "central" or child.poll() is None:
                        continue
                    # A host died: respawn the same logical names; the
                    # fresh process republishes its runtime files and
                    # the central reconnects to the new ports.
                    indices = self._host_groups.get(key)
                    if indices:
                        del self._children[key]
                        self.spawn_host(indices)
                        self.respawns += 1
                time.sleep(SUPERVISE_S)
        except KeyboardInterrupt:
            self.shutdown()
            return 0

    def shutdown(self, grace_s: float = 5.0) -> None:
        """Stop every child: SIGTERM, short grace, then SIGKILL."""
        request_stop(self.state_dir, reason="launcher shutdown")
        for child in self._children.values():
            if child.poll() is None:
                try:
                    child.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.time() + grace_s
        for child in self._children.values():
            remaining = max(0.1, deadline - time.time())
            try:
                child.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait(timeout=grace_s)
        self._children.clear()
        self._host_groups.clear()
