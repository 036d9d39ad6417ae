"""The ``analysis_wb`` white-box peer-comparison module (paper section 4.4).

Consumes per-second white-box state vectors (from ``hadoop_log``) for
every monitored node.  Over each window it computes each node's
per-metric mean, takes the median of the means across nodes, and flags
node ``i`` anomalous when ``|mean_metric_i - median_mean_metric|``
exceeds the adaptive threshold ``max(1, k * sigma_median)`` for one or
more metrics.  Fingerpointing requires ``consecutive`` anomalous windows
in a row.

Configuration::

    [analysis_wb]
    id = analysis
    k = 3
    window = 60
    slide = 60
    consecutive = 2
    input[n0] = hl.slave01
    input[n1] = hl.slave02
    ...

Outputs mirror ``analysis_bb``: ``alarms``, ``decisions`` and ``stats``.

Windowing, streak counting and the outputs are
:class:`~repro.modules._window_sync.PeerComparisonModule`; this file is
the statistic: mean and sigma of a round's time-major ``(window, nodes,
metrics)`` block over axis 0, then the median rule.
"""

from __future__ import annotations

import numpy as np

from ..analysis.fleet import window_moments_batch
from ..analysis.peer import whitebox_anomalies
from ._window_sync import PeerComparisonModule


class WhiteBoxAnalysisModule(PeerComparisonModule):
    type_name = "analysis_wb"
    alarm_source = "whitebox"
    default_consecutive = 2

    def configure(self) -> None:
        self.k = self.ctx.param_float("k", 3.0)

    def compare(self, block: np.ndarray):
        means, stds = window_moments_batch(block)
        offending = whitebox_anomalies(means, stds, self.k).anomalous_metrics
        return (
            [bool(metrics) for metrics in offending],
            lambda i: f"metrics over threshold: {offending[i]}",
            {"means": means, "stds": stds},
        )
