"""Collection daemon host process: the ``repro cluster node`` entrypoint.

Transport v2 turns the one-process-per-node model into a *host* model:
one OS process serves one or many **logical** node daemons.  The host
builds a single shared :class:`~repro.cluster.load.FleetLoad` -- a
vectorized Hadoop simulation (``repro.sim.vec`` struct-of-arrays state)
advanced to wall-clock time -- and, per logical node, a
:class:`~repro.rpc.daemons.ClusterNodeDaemon` over that node's slice of
the fleet plus its own :class:`~repro.rpc.RpcServer`.  Each logical
node publishes its own runtime file (so central discovery is unchanged
whether nodes are packed 1- or 16-per-host), all sharing the host's ops
port; 100 logical nodes land on ~13 processes instead of 100.

A single **sampler thread** drives collection in push mode: every
``sample_interval_s`` it advances the shared fleet once and buffers one
window into every daemon, decoupling sampling cadence from the
central's poll cadence -- the central then drains the buffered windows
batch-wise via ``poll_many``.

The process exits on SIGTERM/SIGINT, on the cluster's stop marker, or
on an ops ``/shutdown``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Sequence

from ..obsv import Observatory, OpsServer
from ..rpc import ClusterNodeDaemon, RpcServer
from ..telemetry import Telemetry
from .load import FleetLoad
from .state import DaemonRuntime, stop_requested, write_runtime

__all__ = ["run_node_host"]

#: How often the idle loop checks its exit conditions.
POLL_S = 0.2

#: Default sampler-loop cadence for the push-mode fleet host.
SAMPLE_INTERVAL_S = 0.5


def _sampler_loop(daemons: Sequence[ClusterNodeDaemon], fleet: FleetLoad,
                  interval_s: float, stop: threading.Event) -> None:
    """Advance the shared fleet and buffer one window per node daemon."""
    while not stop.is_set():
        started = time.perf_counter()
        now = time.time()
        fleet.advance_to(now)
        for daemon in daemons:
            daemon.buffer_sample(now)
        elapsed = time.perf_counter() - started
        stop.wait(max(0.01, interval_s - elapsed))


def run_node_host(
    names: Sequence[str],
    state_dir: str,
    seed: int = 0,
    sample_interval_s: float = SAMPLE_INTERVAL_S,
) -> int:
    """Run one host process serving ``names`` until asked to stop."""
    names = list(names)
    if not names:
        raise ValueError("node host needs at least one logical node name")
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal API
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    label = names[0] if len(names) == 1 else f"{names[0]}+{len(names) - 1}"
    telemetry = Telemetry(trace=True)
    telemetry.tracer.process_name = label

    fleet = FleetLoad(names, seed=seed)
    daemons = [
        ClusterNodeDaemon(name, fleet.view(name), buffered=True)
        for name in names
    ]

    servers = [
        RpcServer(daemon, service=f"sadc@{daemon.node}", telemetry=telemetry)
        for daemon in daemons
    ]
    for server in servers:
        server.start()
    observatory = Observatory(telemetry=telemetry)
    ops = OpsServer(observatory).start()
    for daemon, server in zip(daemons, servers):
        write_runtime(state_dir, DaemonRuntime(
            role="node", name=daemon.node, pid=os.getpid(),
            host="127.0.0.1", rpc_port=server.address[1], ops_port=ops.port,
            started_wall=time.time(),
        ))

    sampler = threading.Thread(
        target=_sampler_loop, args=(daemons, fleet, sample_interval_s, stop),
        name=f"sampler-{label}", daemon=True,
    )
    sampler.start()
    try:
        while not stop.is_set():
            if ops.shutdown_requested.is_set() or stop_requested(state_dir):
                break
            time.sleep(POLL_S)
    finally:
        stop.set()
        sampler.join(timeout=5.0)
        for server in servers:
            server.stop()
        ops.stop()
    return 0
