"""The ``ibuffer`` rate-matching module (paper section 3.7).

"Data collection may potentially be faster than data analysis ... a
buffer module (ibuffer) has been written to collect individual data
points from a data collection module output, and present the data as an
array of data points to an analysis module, which can then process a
larger data set more slowly."

Configuration::

    [ibuffer]
    id = buf1
    input[input] = onenn0.output0
    size = 10          ; samples per emitted batch
    slide = 10         ; optional; < size gives overlapping batches

Output ``output0`` carries a list of the buffered sample values each
time ``size`` samples have accumulated.
"""

from __future__ import annotations

from typing import Any, List

from ..core import InputPortSpec, Module, ParamSpec, RunReason, TriggerSpec
from ._window_sync import window_check


class IBufferModule(Module):
    type_name = "ibuffer"
    params = (
        ParamSpec("size", "int", default="10", min_value=1),
        ParamSpec("slide", "int", default="size", min_value=1),
    )
    ports = (InputPortSpec("input", max_connections=1),)
    output_names = ("output0",)
    trigger = TriggerSpec.fixed(1)
    param_check = window_check("size")

    def init(self) -> None:
        ctx = self.ctx
        self.connection = ctx.input("input").single()
        self.size = ctx.param_int("size")
        self.slide = ctx.param_int("slide")
        self.out = ctx.create_output("output0", self.connection.origin)
        self._buffer: List[Any] = []
        self.batches_emitted = 0
        # Run on every single upstream write.
        ctx.trigger_after_updates(1)

    def run(self, reason: RunReason) -> None:
        for sample in self.connection.pop_all():
            self._buffer.append(sample.value)
            while len(self._buffer) >= self.size:
                batch = list(self._buffer[: self.size])
                self.out.write(batch, self.ctx.clock.now())
                del self._buffer[: self.slide]
                self.batches_emitted += 1
