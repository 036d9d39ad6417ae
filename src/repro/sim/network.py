"""Network state: transfer demands and injectable packet loss.

Transfers (shuffle copies, HDFS block reads/writes, heartbeats) are
declared each tick; :meth:`repro.sim.engine.TickContext.arbitrate`
grants each transfer the minimum of its sender's transmit share and its
receiver's receive share, further scaled by
:func:`repro.sim.resources.tcp_goodput_factor` when either endpoint
suffers the packet loss recorded here.  Loss also shows up in NIC
error/drop counters so that black-box analysis sees it.

Intra-node "transfers" (reading a local HDFS block) bypass the network
entirely, matching Hadoop's short-circuit local reads through the
loopback path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Approximate wire MTU payload per packet, bytes.
PACKET_BYTES = 1448.0


@dataclass
class Transfer:
    """One tick's demand to move bytes between two nodes."""

    src: str
    dst: str
    wanted_bytes: float
    granted_bytes: float = 0.0
    #: Bytes lost to drops (retransmitted wire traffic, not goodput).
    dropped_bytes: float = 0.0


class NetworkModel:
    """Packet loss injected per node (the PacketLoss fault's hook)."""

    def __init__(self) -> None:
        self._loss: Dict[str, float] = {}

    def set_loss_rate(self, node: str, loss_rate: float) -> None:
        """Inject packet loss on ``node``, clamped to ``[0, 1]``."""
        self._loss[node] = min(1.0, max(0.0, loss_rate))

    def clear_loss_rate(self, node: str) -> None:
        self._loss.pop(node, None)

    def loss_rate(self, node: str) -> float:
        return self._loss.get(node, 0.0)

    def loss_rates(self) -> Dict[str, float]:
        """All nodes with injected loss."""
        return dict(self._loss)
