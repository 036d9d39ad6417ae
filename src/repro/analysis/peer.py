"""Median-based peer comparison -- the paper's core localization idea.

The hypothesis (section 4.5): slave nodes do similar work on average, so
under fault-free conditions their aggregated metrics look alike *even
across workload changes*, while a faulty node departs from its peers.
Comparing each node against the component-wise **median** of all nodes
costs O(N) instead of the O(N^2) all-pairs comparison, and the median is
correct as long as more than half the nodes are fault-free (section 4.4).

Two flavours are provided:

* :func:`state_vector_l1_deviation` -- black-box: each node summarizes a
  window as a histogram of 1-NN cluster ("state") occupancies; the alarm
  statistic is the L1 distance between a node's histogram and the median
  histogram.
* :func:`whitebox_deviations` / :func:`whitebox_anomalies` -- white-box:
  per state metric, compare each node's window mean against the median
  of the means with the adaptive threshold ``max(1, k * sigma_median)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


def state_vector_l1_deviation(histograms: np.ndarray) -> np.ndarray:
    """L1 distance of each node's state vector from the median vector.

    ``histograms`` has shape (n_nodes, k); the median is component-wise
    across nodes.  Returns one deviation per node.
    """
    histograms = np.asarray(histograms, dtype=float)
    if histograms.ndim != 2:
        raise ValueError(f"expected (n_nodes, k), got shape {histograms.shape}")
    median = np.median(histograms, axis=0)
    return np.abs(histograms - median).sum(axis=1)


@dataclass
class WhiteboxVerdict:
    """Per-node outcome of one white-box window comparison."""

    deviations: np.ndarray          # (n_nodes, n_metrics)
    thresholds: np.ndarray          # (n_metrics,)
    anomalous_metrics: List[List[int]]  # per node, offending metric indices

    @property
    def anomalous_nodes(self) -> np.ndarray:
        """Boolean per node: any metric over threshold."""
        return np.array([len(m) > 0 for m in self.anomalous_metrics])


def whitebox_deviations(window_means: np.ndarray) -> np.ndarray:
    """|mean_i - median(mean)| per node per metric.

    ``window_means`` has shape (n_nodes, n_metrics): each node's mean of
    each white-box state metric over the current window.
    """
    window_means = np.asarray(window_means, dtype=float)
    if window_means.ndim != 2:
        raise ValueError(
            f"expected (n_nodes, n_metrics), got shape {window_means.shape}"
        )
    median = np.median(window_means, axis=0)
    return np.abs(window_means - median)


def whitebox_thresholds(window_stds: np.ndarray, k: float) -> np.ndarray:
    """The paper's adaptive threshold ``max(1, k * sigma_median)``.

    ``sigma_median`` is the median across nodes of each metric's standard
    deviation over the window.  The floor of 1 exists because "several
    white-box metrics tend to be constant in several nodes and vary by a
    small amount (typically 1)" -- a zero median sigma would otherwise
    flag that harmless variation (section 4.4).
    """
    window_stds = np.asarray(window_stds, dtype=float)
    if window_stds.ndim != 2:
        raise ValueError(
            f"expected (n_nodes, n_metrics), got shape {window_stds.shape}"
        )
    sigma_median = np.median(window_stds, axis=0)
    return np.maximum(1.0, k * sigma_median)


def whitebox_anomalies(
    window_means: np.ndarray, window_stds: np.ndarray, k: float
) -> WhiteboxVerdict:
    """Full white-box window comparison across all nodes."""
    deviations = whitebox_deviations(window_means)
    thresholds = whitebox_thresholds(window_stds, k)
    # One mask for the fleet; a list is filled only for a flagged node.
    anomalous: List[List[int]] = [[] for _ in range(len(deviations))]
    rows, columns = np.nonzero(deviations > thresholds)
    for node, metric in zip(rows.tolist(), columns.tolist()):
        anomalous[node].append(metric)
    return WhiteboxVerdict(
        deviations=deviations, thresholds=thresholds, anomalous_metrics=anomalous
    )
