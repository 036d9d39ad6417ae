"""Tests for median peer comparison -- the paper's localization core."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    state_vector_l1_deviation,
    whitebox_anomalies,
    whitebox_deviations,
    whitebox_thresholds,
)

from .oracles import state_histogram


class TestStateHistogram:
    def test_counts_assignments(self):
        histogram = state_histogram(np.array([0, 1, 1, 3]), k=4)
        assert list(histogram) == [1, 2, 0, 1]

    def test_empty_assignments(self):
        assert list(state_histogram(np.array([], dtype=int), k=3)) == [0, 0, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            state_histogram(np.array([0, 5]), k=3)
        with pytest.raises(ValueError):
            state_histogram(np.array([-1]), k=3)

    def test_sums_to_sample_count(self):
        assignments = np.array([2, 2, 0, 1, 2, 0])
        assert state_histogram(assignments, k=3).sum() == 6


class TestL1Deviation:
    def test_identical_nodes_have_zero_deviation(self):
        histograms = np.tile(np.array([10.0, 20.0, 30.0]), (5, 1))
        assert state_vector_l1_deviation(histograms) == pytest.approx(np.zeros(5))

    def test_outlier_node_stands_out(self):
        histograms = np.array(
            [[30.0, 30.0], [30.0, 30.0], [30.0, 30.0], [0.0, 60.0]]
        )
        deviations = state_vector_l1_deviation(histograms)
        assert deviations[3] == pytest.approx(60.0)
        assert deviations[:3] == pytest.approx(np.zeros(3))

    def test_median_is_robust_to_minority(self):
        """With more than half the nodes fault-free, the median tracks
        the fault-free behaviour (the paper's assumption ii)."""
        healthy = np.tile(np.array([50.0, 10.0]), (6, 1))
        faulty = np.tile(np.array([0.0, 60.0]), (2, 1))
        deviations = state_vector_l1_deviation(np.vstack([healthy, faulty]))
        assert np.all(deviations[:6] == 0.0)
        assert np.all(deviations[6:] == 100.0)

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            state_vector_l1_deviation(np.array([1.0, 2.0]))

    @given(
        st.integers(3, 8),
        st.integers(2, 5),
        st.integers(0, 1000),
    )
    def test_property_deviation_nonnegative(self, n_nodes, k, seed):
        rng = np.random.default_rng(seed)
        histograms = rng.integers(0, 60, size=(n_nodes, k)).astype(float)
        deviations = state_vector_l1_deviation(histograms)
        assert np.all(deviations >= 0.0)

    @given(st.integers(0, 100))
    def test_property_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        histograms = rng.integers(0, 60, size=(5, 4)).astype(float)
        deviations = state_vector_l1_deviation(histograms)
        perm = rng.permutation(5)
        permuted = state_vector_l1_deviation(histograms[perm])
        assert permuted == pytest.approx(deviations[perm])


class TestWhiteboxComparison:
    def test_deviations_against_median(self):
        means = np.array([[1.0, 2.0], [1.0, 2.0], [4.0, 2.0]])
        deviations = whitebox_deviations(means)
        assert deviations[2, 0] == pytest.approx(3.0)
        assert deviations[0, 1] == 0.0

    def test_threshold_floor_of_one(self):
        """max(1, k*sigma_median): zero variance must not alarm on
        count metrics that wiggle by 1 (paper section 4.4)."""
        stds = np.zeros((5, 3))
        thresholds = whitebox_thresholds(stds, k=3.0)
        assert thresholds == pytest.approx(np.ones(3))

    def test_threshold_scales_with_sigma(self):
        stds = np.full((5, 2), 2.0)
        thresholds = whitebox_thresholds(stds, k=3.0)
        assert thresholds == pytest.approx([6.0, 6.0])

    def test_threshold_uses_median_of_stds(self):
        stds = np.array([[0.0], [0.0], [0.0], [10.0], [10.0]])
        # median std = 0 -> floor applies even though two nodes vary.
        assert whitebox_thresholds(stds, k=5.0) == pytest.approx([1.0])

    def test_anomalies_flag_offending_node_and_metric(self):
        means = np.array([[1.0, 5.0]] * 4 + [[1.0, 30.0]])
        stds = np.full((5, 2), 0.5)
        verdict = whitebox_anomalies(means, stds, k=3.0)
        assert list(verdict.anomalous_nodes) == [False] * 4 + [True]
        assert verdict.anomalous_metrics[4] == [1]

    def test_no_anomalies_on_identical_nodes(self):
        means = np.tile(np.array([3.0, 4.0]), (6, 1))
        stds = np.full((6, 2), 1.0)
        verdict = whitebox_anomalies(means, stds, k=2.0)
        assert not verdict.anomalous_nodes.any()

    def test_larger_k_is_more_permissive(self):
        rng = np.random.default_rng(0)
        means = rng.normal(5.0, 2.0, size=(8, 4))
        stds = rng.uniform(0.1, 0.5, size=(8, 4))
        strict = whitebox_anomalies(means, stds, k=0.0).anomalous_nodes.sum()
        loose = whitebox_anomalies(means, stds, k=10.0).anomalous_nodes.sum()
        assert loose <= strict

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            whitebox_deviations(np.ones(3))
        with pytest.raises(ValueError):
            whitebox_thresholds(np.ones(3), k=1.0)

    @given(st.integers(0, 200))
    def test_property_median_node_never_anomalous_alone(self, seed):
        """A node exactly at the median has zero deviation everywhere."""
        rng = np.random.default_rng(seed)
        means = rng.uniform(0, 10, size=(5, 3))
        median = np.median(means, axis=0)
        means[2] = median
        deviations = whitebox_deviations(means)
        assert deviations[2] == pytest.approx(np.zeros(3), abs=1e-12)
