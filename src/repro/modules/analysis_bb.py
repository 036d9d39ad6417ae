"""The ``analysis_bb`` black-box peer-comparison module (paper section 4.5).

Consumes per-second 1-NN state indices for every monitored node (one
input connection per node, usually one ``ibuffer``'s per-node batches).  Over each
window of ``window`` samples it builds a per-node **StateVector** -- the
histogram of state occupancies -- computes the component-wise median
vector across nodes, and flags node ``j`` anomalous when the L1 distance
``|StateVector_j - medianStateVector|`` exceeds the threshold.  A node is
fingerpointed after ``consecutive`` anomalous windows in a row ("it took
at least 3 consecutive windows to gain confidence in our detection").

Windowing, streak counting and the outputs are
:class:`~repro.modules._window_sync.PeerComparisonModule`; this file is
the statistic, one offset ``bincount`` over a round's time-major block.

Configuration::

    [analysis_bb]
    id = analysis
    threshold = 60
    window = 60
    slide = 60
    consecutive = 3
    num_states = 7
    input[l0] = buf.slave01
    input[l1] = buf.slave02
    ...

Outputs:

* ``alarms`` -- an :class:`repro.analysis.Alarm` per fingerpointing;
* ``decisions`` -- a list of :class:`repro.analysis.WindowDecision` per
  completed window round (consumed by the evaluation harness).
"""

from __future__ import annotations

import numpy as np

from ..analysis.fleet import state_histogram_batch
from ..analysis.peer import state_vector_l1_deviation
from ..core import ParamSpec
from ._window_sync import PeerComparisonModule


class BlackBoxAnalysisModule(PeerComparisonModule):
    type_name = "analysis_bb"
    alarm_source = "blackbox"
    params = PeerComparisonModule.params + (
        ParamSpec("consecutive", "int", default="3", min_value=1),
        ParamSpec("threshold", "float", required=True, min_value=0.0),
        ParamSpec("num_states", "int", required=True, min_value=1),
    )

    def configure(self) -> None:
        self.threshold = self.ctx.param_float("threshold")
        self.num_states = self.ctx.param_int("num_states")

    def feed(self, column: int, sample) -> None:
        values = sample.value if isinstance(sample.value, list) else [sample.value]
        # A batched sample (from ibuffer) carries the timestamp of its
        # *last* element; earlier elements are one collection interval
        # apart.
        base = sample.timestamp - (len(values) - 1)
        push = self._window.push
        for offset, value in enumerate(values):
            push(column, base + offset, float(value))

    def compare(self, block: np.ndarray):
        assignments = np.clip(
            block[:, :, 0].T.astype(int), 0, self.num_states - 1
        )
        histograms = state_histogram_batch(assignments, self.num_states)
        deviations = state_vector_l1_deviation(histograms)
        return (
            (deviations > self.threshold).tolist(),
            lambda i: f"L1 deviation {deviations[i]:.1f} > {self.threshold:.1f}",
            {"deviations": deviations.tolist(), "histograms": histograms},
        )
