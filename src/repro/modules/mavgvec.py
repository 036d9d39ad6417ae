"""The ``mavgvec`` analysis module (paper section 3.6).

"The mavgvec module calculates arithmetic mean and variance of a moving
window of sample vectors.  The sample vector size and window width are
configurable, as is the number of samples to slide the window before
generating new outputs."

Each run consumes the newest sample from every wired input connection,
stacking them into one sample vector (a single vector-valued input works
too).  When a window completes, the ``mean`` and ``var`` outputs carry
the element-wise statistics over the window.

Configuration::

    [mavgvec]
    id = mavgvec_dn_node1
    input[input] = hl.slave01
    window = 60
    slide = 60
"""

from __future__ import annotations

import numpy as np

from ..core import InputPortSpec, Module, RunReason, TriggerSpec
from ._window_sync import WINDOW_PARAMS, TimedWindow, window_check


class MavgVecModule(Module):
    type_name = "mavgvec"
    params = WINDOW_PARAMS
    ports = (InputPortSpec("input"),)
    output_names = ("mean", "var")
    trigger = TriggerSpec.per_connection()
    param_check = window_check("window")

    def init(self) -> None:
        ctx = self.ctx
        self.group = ctx.input("input")
        self._window = TimedWindow(ctx.param_int("window"), ctx.param_int("slide"))
        origin = self.group[0].origin
        self.mean_out = ctx.create_output("mean", origin)
        self.var_out = ctx.create_output("var", origin)
        self.windows_emitted = 0
        # Run once per full set of input updates (the default trigger).

    def run(self, reason: RunReason) -> None:
        samples = self.group.pop_latest_vector()
        if any(sample is None for sample in samples):
            return
        if len(samples) == 1:
            # Single wired connection (the common deployment): skip the
            # stack-and-concatenate round trip.
            vector = np.atleast_1d(np.asarray(samples[0].value, dtype=float))
            timestamp = samples[0].timestamp
        else:
            parts = [np.atleast_1d(np.asarray(s.value, dtype=float)) for s in samples]
            vector = np.concatenate(parts)
            timestamp = max(sample.timestamp for sample in samples)
        for _, end_time, matrix in self._window.push(timestamp, vector):
            self.mean_out.write(matrix.mean(axis=0), end_time)
            self.var_out.write(matrix.var(axis=0), end_time)
            self.windows_emitted += 1
