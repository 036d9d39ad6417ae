"""The ``ibuffer`` rate-matching module (paper section 3.7).

"Data collection may potentially be faster than data analysis ... a
buffer module (ibuffer) has been written to collect individual data
points from a data collection module output, and present the data as an
array of data points to an analysis module, which can then process a
larger data set more slowly."

One instance buffers every node: each connection wired to ``input`` is
a lane keyed by its origin node (``knnfleet``'s binding), whose output,
named after the node, carries a list of the lane's sample values each
time ``size`` of them have accumulated.

Configuration::

    [ibuffer]
    id = buf
    input[input] = onenn.slave01
    input[input] = onenn.slave02
    size = 10          ; samples per emitted batch
    slide = 10         ; optional; < size gives overlapping batches
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ..core import Connection, InputPortSpec, Module, ParamSpec, RunReason, TriggerSpec
from ._window_sync import connections_by_node, window_check


class IBufferModule(Module):
    type_name = "ibuffer"
    params = (
        ParamSpec("size", "int", default="10", min_value=1),
        ParamSpec("slide", "int", default="size", min_value=1),
    )
    ports = (InputPortSpec("input"),)
    # No output_names: they are the wired nodes, known only at init().
    trigger = TriggerSpec.fixed(1)
    param_check = window_check("size")

    def init(self) -> None:
        ctx = self.ctx
        connections = connections_by_node(ctx, f"ibuffer '{ctx.instance_id}'")
        self.size = ctx.param_int("size")
        self.slide = ctx.param_int("slide")
        #: (connection, its output's write, its buffer) per node, sorted.
        self._lanes: List[Tuple[Connection, Any, List[Any]]] = [
            (connections[node], ctx.create_output(node, connections[node].origin).write, [])
            for node in sorted(connections)
        ]
        self.batches_emitted = 0
        # Run after any upstream write: a lane emits as soon as it fills.
        ctx.trigger_after_updates(1)

    def run(self, reason: RunReason) -> None:
        size, slide = self.size, self.slide
        now = self.ctx.clock.now()
        for connection, write, buffer in self._lanes:
            for sample in connection.pop_all():
                buffer.append(sample.value)
                while len(buffer) >= size:
                    write(buffer[:size], now)
                    del buffer[:slide]
                    self.batches_emitted += 1
