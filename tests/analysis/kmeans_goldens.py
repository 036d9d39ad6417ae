"""The seeded trainings whose results ``golden/`` holds.

``golden/bb_model_seed{1,2,3}.json`` are :func:`save_model` files and
``golden/kmeans_fits.json`` is :func:`fit_summaries`, both as the parent
of PR 23 wrote them (every distance a whole ``(n, k, d)`` broadcast).
To write them again -- only when the arithmetic changes on purpose::

    PYTHONPATH=src python tests/analysis/kmeans_goldens.py tests/analysis/golden
"""

import hashlib
import json
import os
import sys

import numpy as np

from repro.analysis.kmeans import fit_kmeans
from repro.experiments.model import save_model, train_blackbox_model
from repro.hadoop.cluster import ClusterConfig

SEEDS = (1, 2, 3)


def trained_model(seed: int):
    """A black-box model off a 5-slave, 120 s fault-free run."""
    return train_blackbox_model(
        cluster_config=ClusterConfig(num_slaves=5, seed=seed),
        duration_s=120.0, num_states=6, seed=seed,
    )


def training_matrix(seed: int) -> np.ndarray:
    """3000 x 64, the size of a 10-slave 300 s training; quantised so
    that equal coordinates (and so near-ties) are common."""
    return np.random.default_rng(seed).normal(size=(3000, 64)).round(1)


def _summary(model) -> dict:
    return {
        "centroids_sha256": hashlib.sha256(
            np.ascontiguousarray(model.centroids).tobytes()
        ).hexdigest(),
        "inertia": repr(model.inertia),
        "n_iterations": model.n_iterations,
    }


def fit_summaries() -> dict:
    """Seeded fits, plus one whose start leaves a cluster empty (the
    repair path: one far-away initial centroid nobody is assigned to)."""
    fits = {
        f"seed{seed}": _summary(fit_kmeans(training_matrix(seed), k=10, seed=seed))
        for seed in SEEDS
    }
    samples = training_matrix(0)[:500, :8]
    start = np.vstack([samples[:3], np.full((1, 8), 1e6)])
    fits["repair"] = _summary(fit_kmeans(samples, k=4, initial_centroids=start))
    return fits


if __name__ == "__main__":
    out = sys.argv[1]
    os.makedirs(out, exist_ok=True)
    for seed in SEEDS:
        save_model(trained_model(seed), os.path.join(out, f"bb_model_seed{seed}.json"))
    with open(os.path.join(out, "kmeans_fits.json"), "w", encoding="utf-8") as fh:
        json.dump(fit_summaries(), fh, indent=1, sort_keys=True)
        fh.write("\n")
