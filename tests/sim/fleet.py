"""A bare fleet of simulated nodes, with no Hadoop on top.

The behaviour tests of the node model, the arbitration engine and the
network drive the simulator's own :class:`SimNode` / :class:`TickContext`
through this: declare or book activity, arbitrate, fold one tick.
"""

from typing import Dict, Optional, Sequence

from repro.sim import FleetState, NetworkModel, NodeSpec, SimNode, TickContext


class OneFleet:
    """``names`` as the rows of one :class:`FleetState`.

    Every node gets ``spec`` (default: :class:`NodeSpec`) unless ``specs``
    names one for it; node ``i`` draws its noise from ``seed + i``.
    """

    def __init__(
        self,
        names: Sequence[str] = ("a", "b"),
        spec: Optional[NodeSpec] = None,
        specs: Optional[Dict[str, NodeSpec]] = None,
        seed: int = 0,
    ) -> None:
        specs = specs or {}
        self.state = FleetState(names)
        self.nodes: Dict[str, SimNode] = {
            name: SimNode(name, specs.get(name, spec or NodeSpec()), seed + i, self.state, i)
            for i, name in enumerate(names)
        }
        self.network = NetworkModel()

    def context(self, dt: float = 1.0) -> TickContext:
        """A fresh tick's demand collector over this fleet."""
        return TickContext(self.state, self.network, dt)

    def end_tick(self, dt: float = 1.0) -> None:
        """Fold the tick's booked activity into every node's counters."""
        self.state.end_tick_all(dt)
