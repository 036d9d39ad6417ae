"""Tests for from-scratch k-means and 1-NN assignment."""

import numpy as np
import pytest

from repro.analysis import assign_nearest, fit_kmeans

from .oracles import nearest_k


def blobs(seed: int = 0, per_cluster: int = 50):
    """Three well-separated 2-D clusters."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    samples = np.vstack(
        [center + rng.normal(0, 0.5, size=(per_cluster, 2)) for center in centers]
    )
    return samples, centers


class TestFitKmeans:
    def test_recovers_separated_clusters(self):
        samples, centers = blobs()
        model = fit_kmeans(samples, k=3, seed=1)
        found = model.centroids[np.argsort(model.centroids[:, 0])]
        expected = centers[np.argsort(centers[:, 0])]
        assert found == pytest.approx(expected, abs=0.5)

    def test_inertia_is_small_on_tight_clusters(self):
        samples, _ = blobs()
        model = fit_kmeans(samples, k=3, seed=1)
        assert model.inertia < samples.shape[0] * 1.0

    def test_deterministic_given_seed(self):
        samples, _ = blobs()
        a = fit_kmeans(samples, k=3, seed=5)
        b = fit_kmeans(samples, k=3, seed=5)
        assert np.array_equal(a.centroids, b.centroids)

    def test_k_equals_one_gives_mean(self):
        samples, _ = blobs()
        model = fit_kmeans(samples, k=1, seed=0)
        assert model.centroids[0] == pytest.approx(samples.mean(axis=0))

    def test_more_clusters_reduce_inertia(self):
        samples, _ = blobs()
        small = fit_kmeans(samples, k=2, seed=0)
        large = fit_kmeans(samples, k=6, seed=0)
        assert large.inertia <= small.inertia

    def test_explicit_initial_centroids(self):
        samples, centers = blobs()
        model = fit_kmeans(samples, k=3, initial_centroids=centers)
        assert model.centroids == pytest.approx(centers, abs=0.5)

    def test_duplicate_points_do_not_crash(self):
        samples = np.ones((20, 3))
        model = fit_kmeans(samples, k=2, seed=0)
        assert model.centroids.shape == (2, 3)

    def test_errors(self):
        samples, _ = blobs()
        with pytest.raises(ValueError, match="k must be positive"):
            fit_kmeans(samples, k=0)
        with pytest.raises(ValueError, match="cannot fit"):
            fit_kmeans(samples[:2], k=5)
        with pytest.raises(ValueError, match="2-D"):
            fit_kmeans(np.ones(5), k=1)
        with pytest.raises(ValueError, match="initial centroids shape"):
            fit_kmeans(samples, k=3, initial_centroids=np.ones((2, 2)))


class TestAssignment:
    def test_assign_nearest_labels_correctly(self):
        centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
        samples = np.array([[0.5, 0.2], [9.0, 11.0], [-1.0, 0.0]])
        assert list(assign_nearest(samples, centroids)) == [0, 1, 0]

    def test_assign_accepts_single_vector(self):
        centroids = np.array([[0.0], [10.0]])
        assert assign_nearest(np.array([9.0]), centroids)[0] == 1

    def test_nearest_k_orders_by_distance(self):
        centroids = np.array([[0.0], [5.0], [100.0]])
        order = nearest_k(np.array([4.0]), centroids, k=3)
        assert list(order) == [1, 0, 2]

    def test_nearest_k_subsets(self):
        centroids = np.array([[0.0], [5.0], [100.0]])
        assert list(nearest_k(np.array([4.0]), centroids, k=1)) == [1]

    def test_tie_breaks_are_stable(self):
        centroids = np.array([[1.0], [-1.0]])
        assert assign_nearest(np.array([[0.0]]), centroids)[0] == 0
