"""Tests for the SALSA-style log parser (paper section 4.4, Figure 5)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.faults import FAULT_NAMES, FaultSpec, make_fault
from repro.hadoop import (
    ClusterConfig,
    HadoopCluster,
    JobSpec,
    MB,
    StateVectorStream,
    WHITEBOX_STATE_INDEX,
    WHITEBOX_STATES,
    format_line,
)
from repro.hadoop.logs import DATANODE_CLASS, TASKTRACKER_CLASS
from repro.workloads.gridmix import GridMixConfig, generate_workload

from .log_oracle import NodeLogParser


def tt_line(t: float, message: str) -> str:
    return format_line(t, "INFO", TASKTRACKER_CLASS, message)


def dn_line(t: float, message: str) -> str:
    return format_line(t, "INFO", DATANODE_CLASS, message)


def state(vector: np.ndarray, name: str) -> float:
    return vector[WHITEBOX_STATE_INDEX[name]]


class TestFigure5Semantics:
    def test_paper_figure5_snippet(self):
        """The exact scenario from the paper's Figure 5: a map launch at
        14:23:15 and a reduce launch at 14:23:16 produce MapTask=1 at the
        first instant and MapTask=1, ReduceTask=1 at the second."""
        parser = NodeLogParser("slave01")
        base = 23 * 60 + 15  # 14:23:15 relative to the 14:00:00 epoch
        parser.feed_line(tt_line(base, "LaunchTaskAction: task_0001_m_000096_0"))
        parser.feed_line(tt_line(base + 1, "LaunchTaskAction: task_0001_r_000003_0"))
        first = parser.state_vector(base)
        second = parser.state_vector(base + 1)
        assert state(first, "MapTask") == 1 and state(first, "ReduceTask") == 0
        assert state(second, "MapTask") == 1 and state(second, "ReduceTask") == 1

    def test_map_interval_closes_on_done(self):
        parser = NodeLogParser("n")
        parser.feed_line(tt_line(10, "LaunchTaskAction: task_0001_m_000000_0"))
        parser.feed_line(tt_line(40, "Task task_0001_m_000000_0 is done."))
        assert state(parser.state_vector(10), "MapTask") == 1
        assert state(parser.state_vector(39), "MapTask") == 1
        assert state(parser.state_vector(40), "MapTask") == 0

    def test_removed_task_also_closes_interval(self):
        parser = NodeLogParser("n")
        parser.feed_line(tt_line(10, "LaunchTaskAction: task_0001_m_000000_0"))
        parser.feed_line(
            tt_line(30, "Removing task 'task_0001_m_000000_0' from running tasks")
        )
        assert state(parser.state_vector(35), "MapTask") == 0

    def test_concurrent_tasks_counted(self):
        parser = NodeLogParser("n")
        for i in range(3):
            parser.feed_line(tt_line(5, f"LaunchTaskAction: task_0001_m_{i:06d}_0"))
        assert state(parser.state_vector(6), "MapTask") == 3


class TestReducePhases:
    def _start_reduce(self, parser, t=0):
        parser.feed_line(tt_line(t, "LaunchTaskAction: task_0001_r_000001_0"))

    def test_reduce_defaults_to_copy_phase(self):
        parser = NodeLogParser("n")
        self._start_reduce(parser)
        vector = parser.state_vector(1)
        assert state(vector, "ReduceTask") == 1
        assert state(vector, "ReduceCopy") == 1

    def test_phase_transitions_follow_progress_lines(self):
        parser = NodeLogParser("n")
        self._start_reduce(parser, t=0)
        parser.feed_line(
            tt_line(5, "task_0001_r_000001_0 0.10% reduce > copy (1 of 4 at 1.00 MB/s) >")
        )
        parser.feed_line(tt_line(20, "task_0001_r_000001_0 0.50% reduce > sort"))
        parser.feed_line(tt_line(30, "task_0001_r_000001_0 0.80% reduce > reduce"))
        assert state(parser.state_vector(10), "ReduceCopy") == 1
        assert state(parser.state_vector(25), "ReduceSort") == 1
        assert state(parser.state_vector(35), "ReduceReduce") == 1
        # Exactly one phase at a time.
        for second in (10, 25, 35):
            vector = parser.state_vector(second)
            phases = (
                state(vector, "ReduceCopy")
                + state(vector, "ReduceSort")
                + state(vector, "ReduceReduce")
            )
            assert phases == 1

    def test_phase_state_ends_with_task(self):
        parser = NodeLogParser("n")
        self._start_reduce(parser, t=0)
        parser.feed_line(tt_line(10, "task_0001_r_000001_0 0.80% reduce > reduce"))
        parser.feed_line(tt_line(20, "Task task_0001_r_000001_0 is done."))
        assert state(parser.state_vector(25), "ReduceReduce") == 0


class TestDataNodeStates:
    def test_write_block_interval(self):
        parser = NodeLogParser("n")
        parser.feed_line(
            dn_line(10, "Receiving block blk_1001 src: /10.0.0.1:50010 dest: /10.0.0.2:50010")
        )
        parser.feed_line(dn_line(30, "Received block blk_1001 of size 1000 from /10.0.0.1"))
        assert state(parser.state_vector(15), "WriteBlock") == 1
        assert state(parser.state_vector(30), "WriteBlock") == 0

    def test_read_block_is_instant(self):
        parser = NodeLogParser("n")
        parser.feed_line(dn_line(12.3, "10.0.0.2:50010 Served block blk_1002 to /10.0.0.5"))
        assert state(parser.state_vector(12), "ReadBlock") == 1
        assert state(parser.state_vector(13), "ReadBlock") == 0

    def test_delete_block_is_instant(self):
        parser = NodeLogParser("n")
        parser.feed_line(
            dn_line(50, "Deleting block blk_1003 file /hadoop/dfs/data/current/blk_1003")
        )
        assert state(parser.state_vector(50), "DeleteBlock") == 1
        assert state(parser.state_vector(51), "DeleteBlock") == 0

    def test_multiple_reads_in_one_second(self):
        parser = NodeLogParser("n")
        for i in range(3):
            parser.feed_line(
                dn_line(7.0 + i * 0.2, f"x Served block blk_{2000 + i} to /10.0.0.5")
            )
        assert state(parser.state_vector(7), "ReadBlock") == 3


class TestRobustness:
    def test_unknown_lines_are_skipped(self):
        parser = NodeLogParser("n")
        parser.feed_line("complete garbage")
        parser.feed_line(format_line(1.0, "INFO", "org.apache.hadoop.ipc.Server", "noise"))
        assert parser.lines_skipped == 2
        assert parser.lines_parsed == 0

    def test_done_without_launch_is_ignored(self):
        parser = NodeLogParser("n")
        parser.feed_line(tt_line(5, "Task task_0001_m_000000_0 is done."))
        assert state(parser.state_vector(5), "MapTask") == 0

    def test_watermark_tracks_latest_time(self):
        parser = NodeLogParser("n")
        assert parser.watermark() is None
        parser.feed_line(tt_line(10, "LaunchTaskAction: task_0001_m_000000_0"))
        parser.feed_line(tt_line(5, "LaunchTaskAction: task_0001_m_000001_0"))
        assert parser.watermark() == 10.0

    def test_prune_preserves_counts_after_cutoff(self):
        parser = NodeLogParser("n")
        parser.feed_line(tt_line(0, "LaunchTaskAction: task_0001_m_000000_0"))
        parser.feed_line(tt_line(10, "Task task_0001_m_000000_0 is done."))
        parser.feed_line(tt_line(20, "LaunchTaskAction: task_0001_m_000001_0"))
        before = parser.state_vector(25).copy()
        parser.prune(15.0)
        assert np.array_equal(parser.state_vector(25), before)

    def test_state_vectors_matrix_shape(self):
        parser = NodeLogParser("n")
        matrix = parser.state_vectors(0, 10)
        assert matrix.shape == (10, len(WHITEBOX_STATES))


class TestAgainstSimulator:
    def test_parser_counts_match_actual_running_attempts(self):
        cluster = HadoopCluster(ClusterConfig(num_slaves=4, seed=5))
        cluster.submit_job(
            JobSpec(
                job_id="200807070001_0001",
                name="job",
                input_bytes=256.0 * MB,
                num_reduces=2,
            )
        )
        running = {n: [] for n in cluster.slave_names}

        def on_tick(c):
            for n in c.slave_names:
                running[n].append(len(c.trackers[n].running))

        cluster.run_until(200.0, on_tick=on_tick)
        for node in cluster.slave_names:
            parser = NodeLogParser(node)
            for record in cluster.tt_logs[node].records():
                parser.feed_line(record.line)
            for second in range(0, 200, 7):
                vector = parser.state_vector(second)
                observed = state(vector, "MapTask") + state(vector, "ReduceTask")
                assert observed == running[node][second]


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 60), st.integers(0, 20)),
        min_size=1,
        max_size=20,
    )
)
def test_property_counts_are_bounded_by_launches(tasks):
    """For any launch/done schedule, per-second counts are within
    [0, number of launches] and never negative."""
    parser = NodeLogParser("n")
    events = []
    for index, (start, duration, _) in enumerate(tasks):
        events.append((start, f"LaunchTaskAction: task_0001_m_{index:06d}_0"))
        events.append((start + duration, f"Task task_0001_m_{index:06d}_0 is done."))
    events.sort(key=lambda e: e[0])
    for t, message in events:
        parser.feed_line(tt_line(float(t), message))
    for second in range(0, 120, 5):
        count = state(parser.state_vector(second), "MapTask")
        assert 0 <= count <= len(tasks)


# -- the streaming counter against the interval scan ---------------------------

class Replay:
    """A :class:`StateVectorStream` next to the interval-scan oracle.

    Both read the same lines as they *arrive*; every second the stream
    emits is compared with ``NodeLogParser.state_vector`` asked at that
    moment, and the oracle is then pruned to the cursor, as the daemon
    pruned it before it streamed.
    """

    def __init__(self, node: str = "n") -> None:
        self.stream = StateVectorStream(node)
        self.oracle = NodeLogParser(node)
        self.rows = {}
        self.mismatches = []

    def feed(self, *lines: str) -> None:
        for line in lines:
            self.stream.feed_line(line)
            self.oracle.feed_line(line)

    def take(self, end: int) -> None:
        first = self.stream.cursor
        for second, row in enumerate(self.stream.take(end), start=first):
            assert second not in self.rows
            self.rows[second] = row
            if list(self.oracle.state_vector(second)) != row:
                self.mismatches.append(second)
        self.oracle.prune(float(self.stream.cursor))

    def count(self, second: int, name: str) -> float:
        return self.rows[second][WHITEBOX_STATE_INDEX[name]]


def _busy_cluster(num_slaves: int, seed: int = 3, duration_s: float = 300.0):
    cluster = HadoopCluster(
        ClusterConfig(num_slaves=num_slaves, seed=seed)
    )
    for spec in generate_workload(
        GridMixConfig(duration_s=duration_s, seed=seed + 17)
    ).jobs:
        cluster.schedule_job(spec)
    return cluster


@pytest.mark.parametrize("fault_name", [None, *FAULT_NAMES])
def test_stream_equals_interval_scan_on_a_25_slave_run(fault_name):
    """tt and dn logs of 25 slaves over 300 sim-s, fault-free and under
    each Table 2 fault, tailed once a second with the daemon's lag."""
    cluster = _busy_cluster(25)
    if fault_name is not None:
        make_fault(fault_name).arm(
            cluster, FaultSpec(node=cluster.slave_names[12], inject_time=60.0)
        )
    tails = [
        (log, Replay(node))
        for node in cluster.slave_names
        for log in (cluster.tt_logs[node], cluster.dn_logs[node])
    ]
    offsets = [0] * len(tails)
    ticks = 300
    for _ in range(ticks):
        cluster.step(1.0)
        for index, (log, replay) in enumerate(tails):
            records, offsets[index] = log.read_from(offsets[index])
            replay.feed(*(record.line for record in records))
            replay.take(int(cluster.time) - 2)
    assert [replay.mismatches for _, replay in tails] == [[]] * len(tails)
    assert all(sorted(replay.rows) == list(range(ticks - 2)) for _, replay in tails)
    # Every state was live somewhere, so equality is not 0 == 0.
    seen = np.sum(
        [np.sum(list(replay.rows.values()), axis=0) for _, replay in tails], axis=0
    )
    assert (seen > 0).all()
    # Bounded: nothing is kept of an interval once it has closed.
    parsed = sum(replay.stream.lines_parsed for _, replay in tails)
    kept = sum(
        len(replay.stream._open) + len(replay.stream._deltas) for _, replay in tails
    )
    assert parsed > 1000 and kept < 10 * len(tails)


class TestStreamHandCases:
    MAP = "task_0001_m_000000_0"
    REDUCE = "task_0001_r_000001_0"

    def test_line_older_than_the_cursor_is_folded_onto_it(self):
        replay = Replay()
        replay.take(8)
        # Hadoop flushed these late: seconds 3..7 are gone already.
        replay.feed(tt_line(3.2, f"LaunchTaskAction: {self.MAP}"))
        replay.feed(tt_line(4.1, "LaunchTaskAction: task_0001_m_000001_0"))
        replay.feed(tt_line(4.9, "Task task_0001_m_000001_0 is done."))
        replay.take(12)
        replay.feed(tt_line(10.5, f"Task {self.MAP} is done."))  # late again
        replay.take(15)
        assert replay.mismatches == []
        assert [replay.count(s, "MapTask") for s in range(6, 15)] == [
            0, 0, 1, 1, 1, 1, 0, 0, 0,
        ]

    def test_instant_older_than_the_cursor_is_lost(self):
        replay = Replay()
        replay.take(8)
        replay.feed(dn_line(4.5, "x Served block blk_1 to /10.0.0.5"))
        replay.feed(dn_line(8.5, "x Served block blk_2 to /10.0.0.5"))
        replay.take(12)
        assert replay.mismatches == []
        assert [replay.count(s, "ReadBlock") for s in range(8, 12)] == [1, 0, 0, 0]

    def test_relaunch_of_a_still_open_attempt(self):
        replay = Replay()
        replay.feed(tt_line(2.0, f"LaunchTaskAction: {self.REDUCE}"))
        replay.feed(tt_line(4.0, f"{self.REDUCE} 0.40% reduce > sort"))
        replay.take(10)
        # The scan forgets the first start; seconds already served stay.
        replay.feed(tt_line(12.5, f"LaunchTaskAction: {self.REDUCE}"))
        replay.take(16)
        replay.feed(tt_line(17.0, f"Task {self.REDUCE} is done."))
        replay.take(20)
        assert replay.mismatches == []
        assert [replay.count(s, "ReduceTask") for s in range(8, 20)] == [
            1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0,
        ]
        # It keeps the phase it was in.
        assert replay.count(14, "ReduceSort") == 1
        assert replay.count(14, "ReduceCopy") == 0

    def test_relaunch_inside_the_lag_with_a_phase_change_pending(self):
        replay = Replay()
        replay.take(100)
        replay.feed(
            tt_line(100.2, f"LaunchTaskAction: {self.REDUCE}"),
            tt_line(101.5, f"{self.REDUCE} 0.40% reduce > sort"),
            tt_line(102.3, f"LaunchTaskAction: {self.REDUCE}"),
        )
        replay.take(106)
        assert replay.mismatches == []
        assert [replay.count(s, "ReduceTask") for s in range(100, 106)] == [
            0, 0, 0, 1, 1, 1,
        ]
        assert replay.count(104, "ReduceSort") == 1

    def test_phase_line_for_an_unknown_attempt(self):
        replay = Replay()
        replay.feed(tt_line(3.0, f"{self.REDUCE} 0.40% reduce > sort"))
        replay.feed(tt_line(4.0, f"{self.MAP} 0.40% reduce > sort"))
        replay.take(6)
        assert all(row == [0.0] * 8 for row in replay.rows.values())
        # It is not remembered: a later launch starts in copy.
        replay.feed(tt_line(7.0, f"LaunchTaskAction: {self.REDUCE}"))
        replay.feed(tt_line(7.0, f"LaunchTaskAction: {self.MAP}"))
        replay.take(10)
        assert replay.mismatches == []
        assert replay.count(8, "ReduceCopy") == 1 and replay.count(8, "ReduceSort") == 0
        assert replay.count(8, "MapTask") == 1

    def test_launch_and_done_inside_one_second(self):
        replay = Replay()
        replay.feed(tt_line(5.2, f"LaunchTaskAction: {self.MAP}"))
        replay.feed(tt_line(5.8, f"Task {self.MAP} is done."))
        # From the boundary itself, the second counts it.
        replay.feed(tt_line(7.0, "LaunchTaskAction: task_0001_m_000001_0"))
        replay.feed(tt_line(7.8, "Task task_0001_m_000001_0 is done."))
        replay.take(10)
        assert replay.mismatches == []
        assert [replay.count(s, "MapTask") for s in range(4, 10)] == [0, 0, 0, 1, 0, 0]

    def test_instants_on_a_second_boundary(self):
        replay = Replay()
        replay.feed(dn_line(7.0, "x Served block blk_1 to /10.0.0.5"))
        replay.feed(dn_line(7.999, "x Served block blk_2 to /10.0.0.5"))
        replay.feed(dn_line(8.0, "Deleting block blk_3 file /d/blk_3"))
        replay.take(10)
        assert replay.mismatches == []
        assert [replay.count(s, "ReadBlock") for s in range(6, 10)] == [0, 2, 0, 0]
        assert [replay.count(s, "DeleteBlock") for s in range(6, 10)] == [0, 0, 1, 0]

    def test_done_line_stamped_before_the_launch(self):
        replay = Replay()
        replay.feed(tt_line(10.0, f"LaunchTaskAction: {self.MAP}"))
        replay.feed(tt_line(5.0, f"Task {self.MAP} is done."))
        replay.feed(dn_line(10.0, "Receiving block blk_7 src: /a dest: /b"))
        replay.feed(dn_line(10.0, "Receiving block blk_7 src: /a dest: /b"))
        replay.feed(dn_line(12.5, "Received block blk_7 of size 9 from /a"))
        replay.take(15)
        assert replay.mismatches == []
        assert all(replay.count(s, "MapTask") == 0 for s in range(15))
        assert [replay.count(s, "WriteBlock") for s in range(9, 15)] == [
            0, 1, 1, 1, 0, 0,
        ]

    def test_take_is_empty_behind_the_cursor_and_rows_are_copies(self):
        stream = StateVectorStream("n")
        assert stream.take(0) == [] and stream.take(-5) == []
        rows = stream.take(3)
        rows[0][0] = 99.0
        assert stream.take(4) == [[0.0] * 8]
        assert stream.take(2) == [] and stream.cursor == 4


@given(
    st.lists(
        st.tuples(
            st.integers(0, 400),        # start, tenths of a second
            st.integers(0, 150),        # duration, tenths
            st.sampled_from(["m", "r", "w", "read", "delete"]),
            st.integers(0, 60),         # tenths after the start: sort
            st.integers(0, 60),         # tenths after that: reduce
        ),
        min_size=1, max_size=25,
    ),
    st.integers(0, 4),                  # how late Hadoop flushes, seconds
)
def test_property_stream_equals_interval_scan(intervals, flush_lag):
    """Any schedule of tasks, writes and instants whose lines are in time
    order, read once a second, up to ``flush_lag`` seconds late (lines
    may then be older than the cursor)."""
    lines = []
    for index, (start, duration, kind, to_sort, to_reduce) in enumerate(intervals):
        t0, t1 = start / 10.0, (start + duration) / 10.0
        if kind in ("m", "r"):
            attempt = f"task_0001_{kind}_{index:06d}_0"
            lines.append((t0, tt_line(t0, f"LaunchTaskAction: {attempt}")))
            if kind == "r":
                for phase, at in (("sort", to_sort), ("reduce", to_sort + to_reduce)):
                    t = t0 + at / 10.0
                    if t < t1:
                        lines.append(
                            (t, tt_line(t, f"{attempt} 0.50% reduce > {phase}"))
                        )
            lines.append((t1, tt_line(t1, f"Task {attempt} is done.")))
        elif kind == "w":
            lines.append((t0, dn_line(t0, f"Receiving block blk_{index} src: /a dest: /b")))
            lines.append((t1, dn_line(t1, f"Received block blk_{index} of size 1 from /a")))
        elif kind == "read":
            lines.append((t0, dn_line(t0, f"x Served block blk_{index} to /c")))
        else:
            lines.append((t0, dn_line(t0, f"Deleting block blk_{index} file /d")))
    lines.sort(key=lambda item: item[0])
    replay = Replay()
    for now in range(0, 62):
        while lines and lines[0][0] + flush_lag <= now:
            replay.feed(lines.pop(0)[1])
        replay.take(now - 2)
    assert replay.mismatches == []
    assert not replay.stream._open and not replay.stream._deltas
