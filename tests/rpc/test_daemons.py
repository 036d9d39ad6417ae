"""Tests for the sadc and hadoop_log collection daemons."""

import random
from functools import partial

import pytest

from repro.hadoop import DATANODE_CLASS, DaemonLog, TASKTRACKER_CLASS, format_line
from repro.rpc import (
    LOG_PARSER_LAG_S,
    HadoopLogDaemon,
    InprocChannel,
    SadcDaemon,
    SeriesRows,
)
from repro.rpc.daemons import MAX_BUFFERED_WINDOWS
from repro.sysstat import NODE_METRICS

from hadoop.log_oracle import NodeLogParser  # tests/hadoop: the interval scan
from sysstat.sadc_oracle import SampledProcFS  # tests/sysstat: the per-node sampler


class TestSadcDaemon:
    def test_priming_call_returns_none(self):
        daemon = SadcDaemon("slave01", SampledProcFS())
        assert daemon.rpc_sample(now=0.0) is None

    def test_sample_contains_catalog(self):
        procfs = SampledProcFS()
        daemon = SadcDaemon("slave01", procfs)
        daemon.rpc_sample(now=0.0)
        procfs.cpu.idle += 4.0
        sample = daemon.rpc_sample(now=1.0)
        assert set(sample["node"]) == set(NODE_METRICS)
        assert sample["timestamp"] == 1.0

    def test_sample_carries_exactly_the_interned_catalog(self):
        """Per-NIC and per-process metrics stay out of the hot RPC: the
        sample is the node window codec v2 packs as one f64 row."""
        procfs = SampledProcFS()
        procfs.process(42, "java")
        procfs.nic("eth1")
        daemon = SadcDaemon("slave01", procfs)
        daemon.rpc_sample(now=0.0)
        procfs.cpu.idle += 4.0
        sample = daemon.rpc_sample(now=1.0)
        assert set(sample) == {"timestamp", "node_name", "node"}
        assert sample["node_name"] == "slave01"
        assert tuple(sample["node"]) == daemon.metric_names == NODE_METRICS
        assert all(type(v) is float for v in sample["node"].values())

    def test_list_metrics(self):
        daemon = SadcDaemon("slave01", SampledProcFS())
        catalog = daemon.rpc_list_metrics()
        assert len(catalog["node"]) == 64
        assert len(catalog["nic"]) == 18
        assert len(catalog["process"]) == 19

    def test_cpu_meter_accumulates(self):
        procfs = SampledProcFS()
        daemon = SadcDaemon("slave01", procfs)
        for t in range(5):
            procfs.cpu.idle += 4.0
            daemon.rpc_sample(now=float(t))
        assert daemon.meter.calls == 5
        assert daemon.meter.cpu_seconds >= 0.0


def tt_log_with_task(node: str = "slave01") -> DaemonLog:
    log = DaemonLog(node, "tasktracker")
    log.append(1.0, "INFO", TASKTRACKER_CLASS, "LaunchTaskAction: task_0001_m_000000_0")
    log.append(20.0, "INFO", TASKTRACKER_CLASS, "Task task_0001_m_000000_0 is done.")
    return log


class TestHadoopLogDaemon:
    def test_needs_at_least_one_log(self):
        with pytest.raises(ValueError):
            HadoopLogDaemon("slave01")

    def test_collect_respects_parser_lag(self):
        daemon = HadoopLogDaemon("slave01", tt_log_with_task())
        result = daemon.rpc_collect(now=10.0)
        assert result["seconds"] == list(range(0, 10 - LOG_PARSER_LAG_S))

    def test_each_second_returned_exactly_once(self):
        daemon = HadoopLogDaemon("slave01", tt_log_with_task())
        first = daemon.rpc_collect(now=10.0)
        second = daemon.rpc_collect(now=12.0)
        assert set(first["seconds"]).isdisjoint(second["seconds"])
        assert second["seconds"] == [8, 9]

    def test_vectors_reflect_task_interval(self):
        daemon = HadoopLogDaemon("slave01", tt_log_with_task())
        result = daemon.rpc_collect(now=30.0)
        by_second = dict(zip(result["seconds"], result["vectors"]))
        assert by_second[5][0] == 1.0   # MapTask live at t=5
        assert by_second[25][0] == 0.0  # done by t=25

    def test_incremental_log_growth(self):
        log = DaemonLog("slave01", "tasktracker")
        daemon = HadoopLogDaemon("slave01", log)
        daemon.rpc_collect(now=5.0)
        log.append(6.0, "INFO", TASKTRACKER_CLASS, "LaunchTaskAction: task_0001_m_000001_0")
        result = daemon.rpc_collect(now=10.0)
        by_second = dict(zip(result["seconds"], result["vectors"]))
        assert by_second[7][0] == 1.0

    def test_collect_before_lag_is_empty(self):
        daemon = HadoopLogDaemon("slave01", tt_log_with_task())
        result = daemon.rpc_collect(now=1.0)
        assert result["seconds"] == []

    def test_watermark_reported(self):
        daemon = HadoopLogDaemon("slave01", tt_log_with_task())
        result = daemon.rpc_collect(now=30.0)
        assert result["watermark"] == 20.0

    def test_stats_endpoint(self):
        daemon = HadoopLogDaemon("slave01", tt_log_with_task())
        daemon.rpc_collect(now=10.0)
        stats = daemon.rpc_stats()
        assert stats["lines_parsed"] == 2
        assert stats["cursor"] == 8

    def test_long_poll_gap_is_served_in_bounded_batches(self):
        """After 10 000 s without a poll every second still arrives, once,
        oldest first, in frames that fit a 16 KiB limit."""
        from repro.rpc import InprocChannel, set_max_frame_bytes
        from repro.rpc.daemons import MAX_BUFFERED_WINDOWS

        log = tt_log_with_task()
        log.append(9000.5, "INFO", TASKTRACKER_CLASS,
                   "LaunchTaskAction: task_0001_m_000001_0")
        set_max_frame_bytes(16 * 1024)
        try:
            channel = InprocChannel(HadoopLogDaemon("slave01", log), "hl_tt_rpcd@slave01")
            seconds, vectors, calls = [], [], 0
            while True:
                result = channel.call("collect", now=10_002.0)
                if not result["seconds"]:
                    break
                assert len(result["seconds"]) <= MAX_BUFFERED_WINDOWS
                seconds += result["seconds"]
                vectors += result["vectors"]
                calls += 1
        finally:
            set_max_frame_bytes(None)
        assert seconds == list(range(10_000))
        assert calls == -(-10_000 // MAX_BUFFERED_WINDOWS)
        maps = [vector[0] for vector in vectors]
        assert maps == [0.0] + [1.0] * 19 + [0.0] * 8981 + [1.0] * 999
        assert channel.call("collect", now=10_003.0)["seconds"] == [10_000]

    def test_collect_advertises_the_state_catalog(self):
        from repro.hadoop import WHITEBOX_STATES

        assert HadoopLogDaemon.metric_names == WHITEBOX_STATES
        daemon = HadoopLogDaemon("slave01", tt_log_with_task())
        assert all(
            len(vector) == len(WHITEBOX_STATES)
            for vector in daemon.rpc_collect(now=10.0)["vectors"]
        )

    def test_vector_is_json_friendly(self):
        daemon = HadoopLogDaemon("slave01", tt_log_with_task())
        result = daemon.rpc_collect(now=10.0)
        for vector in result["vectors"]:
            assert all(isinstance(x, float) for x in vector)


def _log_schedule(seed: int, end: float):
    """(time, daemon, message) lines, time-ordered: bursts of map tasks,
    reduce tasks with phases and written, read and deleted blocks, split
    by idle stretches."""
    rng = random.Random(seed)
    lines, t, ids = [], 0.0, iter(range(1, 10**6))
    while t < end:
        t += rng.choice([0.4, 1.0, 3.0, 9.0, 25.0])
        for _ in range(rng.randint(1, 5)):
            start, length, n = t + 3 * rng.random(), rng.uniform(0.2, 40), next(ids)
            kind = rng.choice(["map", "reduce", "block"])
            if kind == "block":
                lines += [(start, "dn", f"Receiving block blk_{n} src: /a dest: /b"),
                          (start + length, "dn", f"Received block blk_{n} of size 1 from /a")]
                if rng.random() < 0.5:
                    lines.append((start + length / 2, "dn", f"Served block blk_{n} to /c"))
                if rng.random() < 0.3:
                    lines.append((start + length + 1, "dn", f"Deleting block blk_{n} file /d"))
                continue
            attempt = f"task_0001_{kind[0]}_{n:06d}_0"
            lines.append((start, "tt", f"LaunchTaskAction: {attempt}"))
            if kind == "reduce":
                lines += [(start + length / 3, "tt", f"{attempt} 0.50% reduce > sort"),
                          (start + length / 2, "tt", f"{attempt} 0.80% reduce > reduce")]
            lines.append((start + length, "tt", f"Task {attempt} is done."))
    return sorted(lines)


def _collect_rows(seed: int, polls, call=None):
    """Every second one daemon over a tasktracker and a datanode log
    serves while the schedule's lines are written as time passes,
    checked row by row against the interval-scan oracle."""
    logs = {"tt": DaemonLog("n", "tasktracker"), "dn": DaemonLog("n", "datanode")}
    classes = {"tt": TASKTRACKER_CLASS, "dn": DATANODE_CLASS}
    daemon = HadoopLogDaemon("n", logs["tt"], logs["dn"])
    collect = call(daemon) if call is not None else daemon.rpc_collect
    oracle, lines, rows = NodeLogParser("n"), _log_schedule(seed, polls[-1]), {}
    for now in polls:
        while lines and lines[0][0] <= now:
            time, which, message = lines.pop(0)
            logs[which].append(time, "INFO", classes[which], message)
            oracle.feed_line(format_line(time, "INFO", classes[which], message))
        result = collect(now=now)
        assert type(result) is SeriesRows
        assert len(result.rows) <= MAX_BUFFERED_WINDOWS
        for at, row in enumerate(result.rows):
            assert result.first + at not in rows
            assert row == oracle.state_vector(result.first + at).tolist(), (seed, now)
            rows[result.first + at] = row
    return rows


class TestSteadyPathIsTheGeneralPath:
    """A steady ``collect`` -- no new line, one second, the running row
    handed out -- gives what the interval scan gives, and the same lines
    give the same rows polled every second or in batches."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_the_oracle_and_batches_equal_steps(self, seed):
        rng = random.Random(seed)
        steady = []
        for t in range(900):
            if 300 <= t < 300 + MAX_BUFFERED_WINDOWS + 45:
                continue                    # a poll gap past one frame's worth
            steady += [float(t)] * (2 if rng.random() < 0.1 else 1)
        via_channel = _collect_rows(
            seed, steady, lambda daemon: partial(InprocChannel(daemon, "hl").call, "collect")
        )
        batched = _collect_rows(seed, [float(t) for t in range(0, 900, 13)] + [899.0])
        assert sorted(via_channel) == sorted(batched) == list(range(899 - LOG_PARSER_LAG_S))
        assert via_channel == batched
        assert sum(map(sum, batched.values())) > 900     # the rows are not idle
