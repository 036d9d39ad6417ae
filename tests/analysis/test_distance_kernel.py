"""The blocked distance kernel gives the whole-matrix broadcast's bits.

``squared_distances`` works through ``BLOCK_ROWS`` rows at a time;
every distance the module takes (assignment, k nearest, k-means++
seeding, the empty-cluster repair, inertia) goes through it.  Centroids,
assignments and saved models must stay ``==`` what the parent of PR 23
computed from one ``(n, k, d)`` tensor (``golden/``, written there by
``kmeans_goldens.py``), out of a few MB of temporaries instead of 31.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.analysis.kmeans import (
    BLOCK_ROWS,
    assign_nearest,
    fit_kmeans,
    nearest_k_batch,
    squared_distances,
)
from repro.experiments.model import save_model

from .kmeans_goldens import SEEDS, fit_summaries, trained_model, training_matrix

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def reference_distances(samples, centroids):
    """The parent's spelling: one (n, k, d) tensor, squared, summed."""
    diffs = samples[:, None, :] - centroids[None, :, :]
    return np.sqrt((diffs**2).sum(axis=2))


def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEqualsTheBroadcast:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3000])
    @pytest.mark.parametrize("k, d", [(1, 1), (3, 7), (10, 64), (4, 130)])
    def test_every_block_count(self, n, k, d):
        assert BLOCK_ROWS == 256
        rng = np.random.default_rng(n * 1000 + d)
        samples = rng.normal(size=(n, d)).round(1)
        centroids = rng.normal(size=(k, d)).round(1)
        reference = reference_distances(samples, centroids)
        assert np.array_equal(
            np.sqrt(squared_distances(samples, centroids)), reference
        )
        assert np.array_equal(
            assign_nearest(samples, centroids), reference.argmin(axis=1)
        )
        assert np.array_equal(
            nearest_k_batch(samples, centroids, k),
            np.argsort(reference, axis=1, kind="stable"),
        )

    def test_a_row_alone_equals_the_row_in_a_batch(self):
        rng = np.random.default_rng(5)
        samples, centroids = rng.normal(size=(300, 64)), rng.normal(size=(10, 64))
        batch = squared_distances(samples, centroids)
        for row in (0, 255, 256, 299):
            assert np.array_equal(
                squared_distances(samples[row:row + 1], centroids)[0], batch[row]
            )

    def test_exact_ties_go_to_the_lower_index(self):
        # Centroids 1 and 3 coincide, 0 and 2 mirror each other about
        # the samples: every row ties twice, in every block.
        centroids = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0], [0.0, 2.0]])
        samples = np.zeros((600, 2))
        assert not assign_nearest(samples, centroids).any()
        order = nearest_k_batch(samples, centroids, 4)
        assert (order == [0, 2, 1, 3]).all()


class TestEqualsTheParentCommit:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_saved_model_bytes(self, seed, tmp_path):
        written = save_model(trained_model(seed), tmp_path / "model.json")
        with open(os.path.join(GOLDEN, f"bb_model_seed{seed}.json"), "rb") as fh:
            assert written.read_bytes() == fh.read()

    def test_fits_including_the_empty_cluster_repair(self):
        with open(os.path.join(GOLDEN, "kmeans_fits.json"), encoding="utf-8") as fh:
            assert fit_summaries() == json.load(fh)

    def test_the_repair_case_does_start_with_an_empty_cluster(self):
        samples = training_matrix(0)[:500, :8]
        start = np.vstack([samples[:3], np.full((1, 8), 1e6)])
        assert 3 not in assign_nearest(samples, start)


class TestTemporariesAreBounded:
    def test_training_peaks_under_4_mb(self):
        samples = training_matrix(1)  # the (n, k, d) tensor is 15.4 MB
        assert peak_bytes(lambda: fit_kmeans(samples, k=10, seed=1)) < 4e6

    def test_a_thousand_node_tick_peaks_under_3_mb(self):
        rng = np.random.default_rng(2)
        samples, centroids = rng.normal(size=(1000, 64)), rng.normal(size=(10, 64))
        assert peak_bytes(lambda: nearest_k_batch(samples, centroids, 1)) < 3e6
