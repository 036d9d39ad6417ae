"""Bit-exact parity of the vectorized hot paths with per-sample math.

The knn backlog batching, the ``nearest_k_batch`` distance kernel and
the ndarray-ring :class:`TimedWindow` all replaced per-sample Python
loops; simulated evaluation runs must stay *byte-identical*, so these
tests compare the optimized paths against straightforward per-sample
reference implementations on randomized inputs -- equality is exact
(``==``), never approximate.
"""

import numpy as np

from analysis.oracles import nearest_k
from repro.analysis.kmeans import nearest_k_batch
from repro.modules._window_sync import TimedWindow

from .helpers import build_core, collected, vector_series
from .window_oracle import ReferenceTimedWindow


class TestNearestKBatch:
    def test_matches_per_sample_on_random_batches(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 16))
            c = int(rng.integers(1, 12))
            samples = rng.normal(size=(n, d))
            centroids = rng.normal(size=(c, d))
            for k in (1, min(2, c), c):
                batch = nearest_k_batch(samples, centroids, k)
                reference = np.stack(
                    [nearest_k(s, centroids, k) for s in samples]
                )
                assert np.array_equal(batch, reference)

    def test_tie_breaking_matches_stable_per_sample_order(self):
        # Duplicate centroids force distance ties; both paths must break
        # them identically (stable sort -> lower index wins).
        centroids = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        samples = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        batch = nearest_k_batch(samples, centroids, 4)
        reference = np.stack([nearest_k(s, centroids, 4) for s in samples])
        assert np.array_equal(batch, reference)

    def test_single_sample_1d_input(self):
        centroids = np.array([[0.0], [2.0], [4.0]])
        assert np.array_equal(
            nearest_k_batch(np.array([3.1]), centroids, 2),
            nearest_k(np.array([3.1]), centroids, 2)[None, :],
        )


class TestKnnBatchedBacklog:
    """The classifier's batched run() vs the per-sample formula."""

    class Model:
        def __init__(self, centroids, sigma):
            self.centroids = np.asarray(centroids, dtype=float)
            self.sigma = np.asarray(sigma, dtype=float)

    def _run(self, values, model, k=1, trigger=None):
        trigger_line = f"trigger = {trigger}\n" if trigger else ""
        config = (
            "[scripted]\nid = src\nnode = slave01\n\n"
            f"[knn]\nid = nn\ninput[input] = src.value\nmodel = bb_model\n"
            f"k = {k}\n{trigger_line}\n"
            "[print]\nid = sink\ninput[a] = nn.output0\n"
        )
        core = build_core(config, {"script": {"src": values}, "bb_model": model})
        core.run_until(float(len(values)))
        return collected(core, "sink")

    def test_backlog_batch_matches_per_sample_reference(self):
        rng = np.random.default_rng(7)
        d, c = 6, 5
        sigma = rng.uniform(0.5, 2.0, size=d)
        centroids = rng.normal(size=(c, d))
        raw = rng.uniform(-5.0, 500.0, size=(30, d))
        model = self.Model(centroids, sigma)

        # trigger=5 makes each run() consume a 5-sample backlog, taking
        # the batched path; the reference applies the documented formula
        # one sample at a time.
        got = self._run(vector_series(raw), model, k=1, trigger=5)
        expected = []
        for row in raw:
            scaled = np.log1p(np.maximum(row, 0.0)) / sigma
            expected.append(int(nearest_k(scaled, centroids, 1)[0]))
        assert got == expected


class TestTimedWindowRing:
    def test_matches_reference_on_randomized_streams(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            size = int(rng.integers(1, 12))
            slide = int(rng.integers(1, size + 1))
            width = int(rng.integers(1, 8))
            ring = TimedWindow(size, slide)
            reference = ReferenceTimedWindow(size, slide)
            for t in range(int(rng.integers(size, 6 * size))):
                row = rng.normal(size=width)
                got = ring.push(float(t), row)
                expected = reference.push(float(t), row)
                assert len(got) == len(expected)
                for (gs, ge, gm), (es, ee, em) in zip(got, expected):
                    assert gs == es and ge == ee
                    assert np.array_equal(gm, em)

    def test_emitted_matrix_is_a_copy(self):
        window = TimedWindow(2, 2)
        window.push(0.0, [1.0, 2.0])
        ((_, _, matrix),) = window.push(1.0, [3.0, 4.0])
        snapshot = matrix.copy()
        for t in range(2, 8):
            window.push(float(t), [float(t), float(t)])
        assert np.array_equal(matrix, snapshot)

    def test_len_tracks_buffered_samples(self):
        window = TimedWindow(3, 2)
        assert len(window) == 0
        window.push(0.0, [1.0])
        window.push(1.0, [1.0])
        assert len(window) == 2
        window.push(2.0, [1.0])  # completes a window, slides by 2
        assert len(window) == 1


class TestMavgvecFastPath:
    def test_single_connection_matches_reference_statistics(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(12, 4))
        config = (
            "[scripted]\nid = src\nnode = slave01\n\n"
            "[mavgvec]\nid = mv\ninput[input] = src.value\n"
            "window = 4\nslide = 2\n\n"
            "[print]\nid = mean_sink\ninput[a] = mv.mean\n"
        )
        core = build_core(config, {"script": {"src": vector_series(raw)}})
        core.run_until(float(len(raw)))
        means = collected(core, "mean_sink")

        reference = ReferenceTimedWindow(4, 2)
        expected = []
        for t, row in enumerate(raw):
            for _, _, matrix in reference.push(float(t), row):
                expected.append(matrix.mean(axis=0))
        assert len(means) == len(expected)
        for got, want in zip(means, expected):
            assert np.array_equal(np.asarray(got), want)
