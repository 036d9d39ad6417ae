"""Node/resource/network simulation substrate under the Hadoop layer.

Models each cluster node as four contended resources (CPU, disk, NIC,
memory) with proportional-share arbitration, a TCP-like response to
packet loss, and coherent ``/proc`` counter generation.  Every node is
a row of one struct-of-arrays :class:`FleetState`; a :class:`SimNode`
and its :class:`ProcFS` are views into it.
"""

from .engine import CpuDemand, DiskDemand, TickContext
from .network import PACKET_BYTES, NetworkModel, Transfer
from .node import DISK_IO_BYTES, ProcFS, SimNode
from .noise import NOISE_BLOCK
from .resources import NodeSpec, tcp_goodput_factor
from .vec import FleetState

__all__ = [
    "CpuDemand",
    "DISK_IO_BYTES",
    "DiskDemand",
    "FleetState",
    "NOISE_BLOCK",
    "NetworkModel",
    "NodeSpec",
    "PACKET_BYTES",
    "ProcFS",
    "SimNode",
    "TickContext",
    "Transfer",
    "tcp_goodput_factor",
]
