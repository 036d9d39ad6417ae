"""Bit-parity tests for the fleet-batched analysis kernels.

The batched helpers are only usable because they are *exactly* the
per-node loops -- these tests pin that equivalence at the bit level
(``==`` on float64 arrays, no tolerances).
"""

import numpy as np
import pytest

from repro.analysis.fleet import state_histogram_batch, window_moments_batch

from .oracles import state_histogram


class TestStateHistogramBatch:
    def test_bit_identical_to_per_row_loop(self):
        rng = np.random.default_rng(5)
        for n, w, k in [(3, 7, 4), (50, 60, 7), (200, 61, 7)]:
            assignments = rng.integers(0, k, size=(n, w))
            batched = state_histogram_batch(assignments, k)
            looped = np.array(
                [state_histogram(row, k) for row in assignments]
            )
            assert batched.dtype == looped.dtype == np.float64
            assert (batched == looped).all()

    def test_counts_are_exact(self):
        histograms = state_histogram_batch([[0, 0, 2], [1, 1, 1]], 3)
        assert histograms.tolist() == [[2.0, 0.0, 1.0], [0.0, 3.0, 0.0]]

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            state_histogram_batch([0, 1, 2], 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            state_histogram_batch([[0, 3]], 3)
        with pytest.raises(ValueError):
            state_histogram_batch([[-1, 0]], 3)

    def test_empty_window(self):
        histograms = state_histogram_batch(np.empty((2, 0), dtype=int), 3)
        assert histograms.shape == (2, 3)
        assert (histograms == 0.0).all()


class TestWindowMomentsBatch:
    def test_bit_identical_to_per_matrix_loop(self):
        rng = np.random.default_rng(9)
        for n, w, d in [(3, 5, 2), (10, 60, 19), (50, 61, 3)]:
            tensor = rng.gamma(2.0, 10.0, size=(n, w, d))
            block = np.ascontiguousarray(tensor.transpose(1, 0, 2))
            means, stds = window_moments_batch(block)
            loop_means = np.array([m.mean(axis=0) for m in tensor])
            loop_stds = np.array([m.std(axis=0) for m in tensor])
            assert (means == loop_means).all()
            assert (stds == loop_stds).all()

    def test_time_major_equals_the_node_major_reduction(self):
        """The layout change moved no bit: 200 random non-integer
        ``(25, 60, 8)`` tensors (white-box counts are integers and would
        pass under any summation order) reduced node-major over axis 1,
        as before the fleet ring, and time-major over axis 0."""
        rng = np.random.default_rng(18)
        for _ in range(200):
            tensor = rng.normal(3.0, 40.0, size=(25, 60, 8)) * rng.gamma(
                1.0, 5.0, size=(25, 1, 8)
            )
            block = np.ascontiguousarray(tensor.transpose(1, 0, 2))
            means, stds = window_moments_batch(block)
            assert (means == tensor.mean(axis=1)).all()
            assert (stds == tensor.std(axis=1)).all()

    def test_reduces_a_ring_slice_without_copying_it(self):
        ring = np.random.default_rng(2).normal(size=(12, 4, 3))
        means, stds = window_moments_batch(ring[3:9])
        assert (means == ring[3:9].mean(axis=0)).all()
        assert means.shape == stds.shape == (4, 3)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            window_moments_batch(np.zeros((4, 5)))
