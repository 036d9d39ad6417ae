"""Live multi-daemon deployment of the ASDF reproduction.

``repro.cluster`` turns the simulated collection/analysis pipeline into
a *real* distributed system: ``repro cluster up``
spawns one collection daemon per simulated node as an actual OS process
plus a central analysis daemon, all on localhost, discovering each other
through runtime files in a shared state directory.  The central daemon
polls every node over real sockets (``repro.rpc``), runs an online
peer-deviation detector, federates every daemon's metrics registry into
cluster-wide ``/metrics``/``/status``/``/cluster`` views, and stitches
per-process Chrome traces into one cross-process timeline.  ``repro
cluster drive`` pushes the deployment through a measured scenario --
sustained sampling, one injected fault, one daemon kill + respawn -- and
emits ``BENCH_cluster.json`` (format ``asdf-cluster-bench/1``).
"""

from .central import CentralDaemon, run_central
from .driver import (
    CLUSTER_BENCH_FORMAT,
    CLUSTER_SCALE_FORMAT,
    check_cluster_scale_gate,
    run_drive,
    run_scale_drive,
)
from .federation import MetricsFederator
from .launcher import ClusterLauncher
from .load import FleetLoad, FleetNodeLoad
from .nodeproc import run_node_host
from .state import (
    DaemonRuntime,
    list_runtimes,
    pid_alive,
    read_runtime,
    request_stop,
    stop_requested,
    write_runtime,
)

__all__ = [
    "CLUSTER_BENCH_FORMAT",
    "CLUSTER_SCALE_FORMAT",
    "CentralDaemon",
    "ClusterLauncher",
    "DaemonRuntime",
    "FleetLoad",
    "FleetNodeLoad",
    "MetricsFederator",
    "check_cluster_scale_gate",
    "list_runtimes",
    "pid_alive",
    "read_runtime",
    "request_stop",
    "run_central",
    "run_drive",
    "run_node_host",
    "run_scale_drive",
    "stop_requested",
    "write_runtime",
]
