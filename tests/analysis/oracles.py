"""Per-row oracles for the batch kernels of :mod:`repro.analysis`.

The paper's formulas spelled one sample, one node at a time -- what
``nearest_k_batch`` and ``state_histogram_batch`` must equal bit for
bit.  Nothing under ``src/`` runs them.
"""

import numpy as np


def nearest_k(sample: np.ndarray, centroids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest centroids to one sample, closest first."""
    sample = np.asarray(sample, dtype=float)
    distances = np.sqrt(((centroids - sample) ** 2).sum(axis=1))
    order = np.argsort(distances, kind="stable")
    return order[:k]


def state_histogram(assignments: np.ndarray, k: int) -> np.ndarray:
    """Count how often each of the ``k`` centroids was assigned.

    This is the ``StateVector`` of paper section 4.5: component ``j`` is
    the number of samples in the window whose nearest centroid was ``j``.
    """
    assignments = np.asarray(assignments, dtype=int)
    if assignments.size and (assignments.min() < 0 or assignments.max() >= k):
        raise ValueError(
            f"assignment index out of range [0, {k}): "
            f"[{assignments.min()}, {assignments.max()}]"
        )
    return np.bincount(assignments, minlength=k).astype(float)
