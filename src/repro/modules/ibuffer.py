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

from ..core import Module, RunReason


class IBufferModule(Module):
    type_name = "ibuffer"

    def init(self) -> None:
        ctx = self.ctx
        self.connection = ctx.input("input").single()
        self.size = ctx.param_int("size", 10)
        self.slide = ctx.param_int("slide", self.size)
        if self.size <= 0:
            from ..core.errors import ConfigError

            raise ConfigError(
                f"ibuffer '{ctx.instance_id}': size must be positive"
            )
        if self.slide <= 0 or self.slide > self.size:
            from ..core.errors import ConfigError

            raise ConfigError(
                f"ibuffer '{ctx.instance_id}': slide must be in [1, size]"
            )
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
