"""Fleet-batched analysis kernels: whole-cluster math in one call.

Exact twins of the per-node helpers, whose one numpy dispatch per node
per window round is what dominates at fleet scale:

- :func:`state_histogram_batch` counts state occupancies for all nodes
  at once with one offset ``bincount`` (integer counting -- exact);
- :func:`window_moments_batch` reduces a **time-major**
  ``(window, n_nodes, metrics)`` block along axis 0; numpy adds up a
  non-innermost axis sample after sample, the order of
  ``matrix.mean(axis=0)`` on one node's matrix, so means and sigmas
  match the per-node loop bit for bit (pinned by the parity tests on
  non-integer data, not assumed).

The block is what :class:`repro.modules._window_sync.FleetWindow`
releases: one shape for every node, so no round is ragged and there is
no per-node path beside these.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def state_histogram_batch(assignments: np.ndarray, k: int) -> np.ndarray:
    """Every node's ``StateVector`` (paper section 4.5) in one call.

    ``assignments`` has shape (n_nodes, window): each row holds one
    node's state indices over the window.  Returns (n_nodes, k) float
    histograms: component ``j`` of a row is the number of samples in that
    node's window whose nearest centroid was ``j``.
    """
    assignments = np.asarray(assignments, dtype=int)
    if assignments.ndim != 2:
        raise ValueError(
            f"expected (n_nodes, window), got shape {assignments.shape}"
        )
    if assignments.size and (
        assignments.min() < 0 or assignments.max() >= k
    ):
        raise ValueError(
            f"assignment index out of range [0, {k}): "
            f"[{assignments.min()}, {assignments.max()}]"
        )
    n = assignments.shape[0]
    offsets = assignments + np.arange(n)[:, None] * k
    counts = np.bincount(offsets.ravel(), minlength=n * k)
    return counts.reshape(n, k).astype(float)


def window_moments_batch(
    block: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Window mean and standard deviation for every node at once.

    ``block`` has shape (window, n_nodes, n_metrics).  Returns
    ``(means, stds)`` of shape (n_nodes, n_metrics), bit-identical to
    ``matrix.mean(axis=0)`` / ``matrix.std(axis=0)`` of each node's
    ``block[:, node]``.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 3:
        raise ValueError(
            f"expected (window, n_nodes, n_metrics), got shape {block.shape}"
        )
    return block.mean(axis=0), block.std(axis=0)


__all__ = ["state_histogram_batch", "window_moments_batch"]
