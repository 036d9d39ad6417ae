"""Tests for the analysis plumbing: timed windows, alignment, streaks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.modules._window_sync import ConsecutiveCounter, TimedWindow

from .window_oracle import WindowAligner


class TestTimedWindow:
    def test_emits_with_time_bounds(self):
        window = TimedWindow(size=3, slide=3)
        assert window.push(10.0, 1.0) == []
        assert window.push(11.0, 2.0) == []
        ((start, end, matrix),) = window.push(12.0, 3.0)
        assert (start, end) == (10.0, 12.0)
        assert matrix.shape == (3, 1)

    def test_sliding_overlap(self):
        window = TimedWindow(size=3, slide=1)
        emitted = []
        for i in range(5):
            emitted.extend(window.push(float(i), float(i)))
        starts = [start for start, _, _ in emitted]
        assert starts == [0.0, 1.0, 2.0]

    def test_vector_samples_stack(self):
        window = TimedWindow(size=2, slide=2)
        window.push(0.0, np.array([1.0, 2.0]))
        ((_, _, matrix),) = window.push(1.0, np.array([3.0, 4.0]))
        assert matrix.shape == (2, 2)
        assert matrix[1, 1] == 4.0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            TimedWindow(size=0, slide=1)
        with pytest.raises(ValueError):
            TimedWindow(size=5, slide=6)

    @given(
        n=st.integers(0, 40),
        size=st.integers(1, 8),
    )
    @settings(max_examples=30)
    def test_property_every_sample_in_at_most_ceil_size_over_slide_windows(
        self, n, size
    ):
        window = TimedWindow(size=size, slide=size)
        count = 0
        for i in range(n):
            count += len(window.push(float(i), float(i)))
        assert count == n // size


class TestWindowAligner:
    def test_round_released_only_when_all_nodes_ready(self):
        aligner = WindowAligner(["a", "b"])
        assert aligner.push("a", [(0.0, 1.0, np.zeros((2, 1)))]) == []
        rounds = aligner.push("b", [(0.0, 1.0, np.ones((2, 1)))])
        assert len(rounds) == 1
        assert set(rounds[0]) == {"a", "b"}

    def test_multiple_rounds_release_in_order(self):
        aligner = WindowAligner(["a", "b"])
        windows = lambda k: [(float(i), float(i) + 1, np.zeros((1, 1))) for i in range(k)]
        aligner.push("a", windows(3))
        rounds = aligner.push("b", windows(3))
        assert len(rounds) == 3
        assert [r["a"][0] for r in rounds] == [0.0, 1.0, 2.0]

    def test_lagging_node_buffers_leader(self):
        aligner = WindowAligner(["a", "b", "c"])
        aligner.push("a", [(0.0, 1.0, np.zeros((1, 1)))] * 5)
        aligner.push("b", [(0.0, 1.0, np.zeros((1, 1)))] * 5)
        assert aligner.push("c", [(0.0, 1.0, np.zeros((1, 1)))]) != []


class TestConsecutiveCounter:
    def test_fires_at_threshold(self):
        counter = ConsecutiveCounter(["n"], required=3)
        assert counter.update({"n": True}) == []
        assert counter.update({"n": True}) == []
        assert counter.update({"n": True}) == ["n"]

    def test_keeps_firing_while_anomalous(self):
        counter = ConsecutiveCounter(["n"], required=2)
        counter.update({"n": True})
        assert counter.update({"n": True}) == ["n"]
        assert counter.update({"n": True}) == ["n"]

    def test_reset_on_recovery(self):
        counter = ConsecutiveCounter(["n"], required=2)
        counter.update({"n": True})
        counter.update({"n": False})
        assert counter.update({"n": True}) == []
        assert counter.streak("n") == 1

    def test_independent_nodes(self):
        counter = ConsecutiveCounter(["a", "b"], required=2)
        counter.update({"a": True, "b": False})
        fired = counter.update({"a": True, "b": True})
        assert fired == ["a"]

    def test_required_must_be_positive(self):
        with pytest.raises(ValueError):
            ConsecutiveCounter(["n"], required=0)

    @given(st.lists(st.booleans(), min_size=1, max_size=50), st.integers(1, 5))
    @settings(max_examples=40)
    def test_property_fires_iff_streak_reached(self, flags, required):
        counter = ConsecutiveCounter(["n"], required=required)
        streak = 0
        for flag in flags:
            fired = counter.update({"n": flag})
            streak = streak + 1 if flag else 0
            assert (fired == ["n"]) == (streak >= required)
