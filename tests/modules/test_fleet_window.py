"""The fleet-wide window ring against the per-node windows it replaced.

:class:`FleetWindow` must release exactly the rounds that one
``TimedWindow`` per node plus a ``WindowAligner`` released (the oracle in
``window_oracle.py``): the same number after every step of any arrival
schedule, and in every round each node's own start, end and matrix,
compared with ``==`` on non-integer data.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ModuleError
from repro.modules._window_sync import FleetWindow

from .helpers import build_core, vector_series
from .window_oracle import ReferenceTimedWindow, WindowAligner

GEOMETRIES = [(3, 1), (60, 1), (60, 7), (60, 60)]


class Twin:
    """A FleetWindow and its oracle, fed the same samples step by step."""

    def __init__(self, nodes, size, slide, width, seed=0):
        self.nodes = [f"n{i}" for i in range(nodes)]
        self.width = width
        self.ring = FleetWindow(self.nodes, size, slide, "test 'twin'")
        self.windows = [ReferenceTimedWindow(size, slide) for _ in self.nodes]
        self.aligner = WindowAligner(self.nodes)
        self.rng = np.random.default_rng(seed)
        # Every node keeps its own clock: starts and ends differ per node.
        self.clocks = [100.0 * i for i in range(nodes)]
        self.rounds = 0

    def step(self, counts):
        """Each node pushes ``counts[node]`` samples; compare the rounds."""
        expected = []
        for column, count in enumerate(counts):
            completed = []
            for _ in range(count):
                if self.width == 0:  # bare numbers, as analysis_bb pushes
                    row = float(self.rng.normal()) * 37.3
                else:
                    row = self.rng.normal(size=self.width) * 37.3
                self.clocks[column] += 1.0
                self.ring.push(column, self.clocks[column], row)
                completed.extend(
                    self.windows[column].push(self.clocks[column], row)
                )
            expected.extend(
                self.aligner.push(self.nodes[column], completed)
            )
        got = [
            (starts.copy(), ends.copy(), block.copy())
            for starts, ends, block in self.ring.rounds()
        ]
        assert len(got) == len(expected)
        for (starts, ends, block), want in zip(got, expected):
            for column, node in enumerate(self.nodes):
                start, end, matrix = want[node]
                assert starts[column] == start and ends[column] == end
                assert block[:, column].shape == matrix.shape
                assert (block[:, column] == matrix).all()
        self.rounds += len(got)
        return len(got)


class TestAgainstTheOracle:
    @pytest.mark.parametrize("size,slide", GEOMETRIES)
    @pytest.mark.parametrize("nodes,width", [(3, 0), (5, 8), (9, 3)])
    def test_uneven_backlogs_and_batches(self, size, slide, nodes, width):
        """Arrivals in ibuffer-sized bursts of 1, 7 and 60 (and none)."""
        twin = Twin(nodes, size, slide, width, seed=size * 31 + nodes)
        bursts = np.array([0, 1, 1, 1, 1, 7, 60])
        for _ in range(120):
            twin.step(twin.rng.choice(bursts, size=nodes).tolist())
        # Level the backlogs: every node ends on the same sample count.
        pushed = [int(clock - 100.0 * i) for i, clock in enumerate(twin.clocks)]
        twin.step([max(pushed) - count for count in pushed])
        assert twin.rounds == (max(pushed) - size) // slide + 1

    @pytest.mark.parametrize("size,slide", GEOMETRIES)
    def test_one_node_three_windows_behind_then_catching_up(self, size, slide):
        twin = Twin(4, size, slide, 5, seed=7)
        for _ in range(size):
            twin.step([1, 1, 1, 1])
        behind = 3 * size + 5
        for _ in range(behind):
            assert twin.step([1, 1, 0, 1]) == 0  # no round without node 2
        # The leaders' backlog did not fit the first 2 x size rows.
        assert twin.ring._capacity >= size + behind - slide > 2 * size
        assert twin.step([0, 0, behind, 0]) == behind // slide
        for _ in range(2 * size):
            twin.step([1, 1, 1, 1])
        assert twin.rounds == (behind + 2 * size) // slide + 1

    @given(
        geometry=st.sampled_from([(3, 1), (4, 2), (5, 5)]),
        nodes=st.integers(3, 9),
        schedule=st.lists(
            st.lists(st.integers(0, 9), min_size=9, max_size=9),
            min_size=1, max_size=25,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_any_schedule(self, geometry, nodes, schedule):
        twin = Twin(nodes, *geometry, width=2, seed=1)
        for counts in schedule:
            twin.step(counts[:nodes])


class TestRing:
    def test_bad_geometry_rejected(self):
        for size, slide in [(0, 1), (5, 0), (5, 6)]:
            with pytest.raises(ValueError):
                FleetWindow(["a", "b", "c"], size, slide, "t")

    def test_round_is_a_view_of_the_ring(self):
        window = FleetWindow(["a", "b", "c"], 2, 1, "t")
        for t in range(2):
            for column in range(3):
                window.push(column, float(t), np.array([t + 0.5, column]))
        ((starts, ends, block),) = list(window.rounds())
        assert block.shape == (2, 3, 2)
        assert block.base is not None and block.flags["C_CONTIGUOUS"]
        assert starts.tolist() == [0.0] * 3 and ends.tolist() == [1.0] * 3

    def test_steady_sliding_never_grows_the_ring(self):
        window = FleetWindow(["a", "b", "c"], 10, 1, "t")
        for t in range(500):
            for column in range(3):
                window.push(column, float(t), np.array([0.25 * t]))
            for _ in window.rounds():
                pass
        assert window._capacity == 20

    def test_row_of_another_width_names_the_node(self):
        window = FleetWindow(["a", "b", "c"], 2, 1, "analysis_wb 'wb'")
        window.push(0, 0.0, np.zeros(8))
        with pytest.raises(ModuleError) as error:
            window.push(2, 0.0, np.zeros(7))
        message = str(error.value)
        assert "analysis_wb 'wb'" in message and "node 'c'" in message
        assert "width 7" in message and "width 8" in message


class TestSilentNode:
    """Today's behaviour, written down: a node that stops sending stops
    the rounds; the others' samples are kept, one ring row per sample,
    and nothing is dropped.  (Whether peer comparison should go on with
    the peers it has is ROADMAP item 3's min-peer rule, not decided
    here.)"""

    def test_rounds_stop_and_the_ring_grows_a_row_per_sample(self):
        size = 5
        twin = Twin(4, size, 1, 2, seed=3)
        for _ in range(size):
            twin.step([1, 1, 1, 1])
        assert twin.rounds == 1
        silent = 1000
        for _ in range(silent):
            assert twin.step([1, 0, 1, 1]) == 0
        held = silent + size - 1  # the one released round freed a row
        assert held <= twin.ring._capacity <= 2 * held
        # Every sample is still there: when the node comes back with its
        # backlog, each withheld round is released, complete.
        assert twin.step([0, silent, 0, 0]) == silent


def wb_core(scripts):
    nodes = sorted(scripts)
    lines = []
    for node in nodes:
        lines += ["[scripted]", f"id = src_{node}", f"node = {node}", ""]
    lines += ["[analysis_wb]", "id = wb", "window = 3", "slide = 1"]
    lines += [f"input[n{i}] = src_{node}.value" for i, node in enumerate(nodes)]
    lines += ["", "[print]", "id = stats", "input[a] = wb.stats"]
    script = {f"src_{node}": values for node, values in scripts.items()}
    return build_core("\n".join(lines) + "\n", {"script": script})


class TestModuleLevel:
    def test_mismatched_row_width_is_a_module_error_naming_the_node(self):
        """Used to die inside ``np.array([...])`` with numpy's
        "inhomogeneous shape" and no word about which node."""
        scripts = {
            "a": vector_series([[1.0, 2.0]] * 4),
            "b": vector_series([[1.0, 2.0]] * 4),
            "c": vector_series([[1.0, 2.0]] * 2) + vector_series([[1.0, 2.0, 3.0]]),
        }
        core = wb_core(scripts)
        with pytest.raises(ModuleError) as error:
            core.run_until(3.0)
        message = str(error.value)
        assert "analysis_wb 'wb'" in message and "node 'c'" in message
        assert "width 3" in message and "width 2" in message

    def test_list_valued_samples_are_accepted(self):
        scripts = {node: [[1.0, 2.0]] * 4 for node in ("a", "b", "c")}
        core = wb_core(scripts)
        core.run_until(3.0)
        stats = [s.value for s in core.instance("stats").received]
        assert len(stats) == 2
        assert (stats[0]["means"] == np.array([[1.0, 2.0]] * 3)).all()
