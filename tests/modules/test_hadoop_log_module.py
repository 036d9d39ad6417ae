"""Tests for the hadoop_log module's cross-node synchronization."""

import numpy as np
import pytest

from repro.core import ConfigError
from repro.modules.hadoop_log import HADOOP_LOG_CHANNEL_SERVICE
from repro.rpc import SeriesRows

from .helpers import FakeChannel, build_core


class ScriptedLogChannel(FakeChannel):
    """Returns pre-scripted per-second vectors respecting a lag."""

    def __init__(self, vectors_by_second, lag: int = 2, hold_after: int = 10**9):
        super().__init__()
        self.vectors_by_second = vectors_by_second
        self.lag = lag
        #: Seconds >= hold_after are withheld (simulating a stalled node).
        self.hold_after = hold_after
        self._cursor = 0

    def call(self, method, **params):
        self.calls.append((method, params))
        assert method == "collect"
        stable_end = int(params["now"]) - self.lag
        first = self._cursor
        end = max(first, min(stable_end, self.hold_after))
        self._cursor = end
        vectors = [self.vectors_by_second.get(second, [0.0] * 8)
                   for second in range(first, end)]
        return SeriesRows(first, vectors, float(stable_end))


def config_for(nodes):
    lines = [
        "[hadoop_log]",
        "id = hl",
        f"nodes = {','.join(nodes)}",
        "interval = 1.0",
        "max_skew = 5",
        "",
        "[print]",
        "id = sink",
    ]
    lines += [f"input[{node}] = hl.{node}" for node in nodes]
    return "\n".join(lines) + "\n"


def services_for(channels):
    return {HADOOP_LOG_CHANNEL_SERVICE: channels}


class TestSynchronization:
    def test_emits_only_when_all_nodes_have_the_second(self):
        channels = {
            "a": ScriptedLogChannel({0: [1.0] * 8}),
            "b": ScriptedLogChannel({0: [2.0] * 8}),
        }
        core = build_core(config_for(["a", "b"]), services_for(channels))
        core.run_until(4.0)
        module = core.instance("hl")
        assert module.seconds_emitted == 2  # seconds 0 and 1 are stable by t=4

    def test_all_nodes_get_same_timestamps(self):
        channels = {
            "a": ScriptedLogChannel({}),
            "b": ScriptedLogChannel({}),
        }
        core = build_core(config_for(["a", "b"]), services_for(channels))
        core.run_until(6.0)
        times = [s.timestamp for s in core.instance("sink").received]
        # Samples arrive interleaved per node but as (a, b) pairs per second.
        assert times == sorted(times)
        assert len(times) % 2 == 0

    def test_stalled_node_blocks_then_seconds_dropped(self):
        channels = {
            "a": ScriptedLogChannel({}),
            "b": ScriptedLogChannel({}, hold_after=3),  # b never reports t>=3
        }
        core = build_core(config_for(["a", "b"]), services_for(channels))
        core.run_until(20.0)
        module = core.instance("hl")
        assert module.seconds_dropped > 0
        # Only fully synchronized seconds were emitted.
        assert module.seconds_emitted == 3

    def test_multiple_channels_per_node_are_summed(self):
        tt = ScriptedLogChannel({0: [1.0, 0, 0, 0, 0, 0, 0, 0]})
        dn = ScriptedLogChannel({0: [0, 0, 0, 0, 0, 2.0, 0, 0]})
        channels = {"a": [tt, dn]}
        config = (
            "[hadoop_log]\nid = hl\nnodes = a\nmax_skew = 5\n\n"
            "[print]\nid = sink\ninput[a] = hl.a\n"
        )
        core = build_core(config, services_for(channels))
        core.run_until(4.0)
        first = core.instance("sink").received[0].value
        assert first[0] == 1.0
        assert first[5] == 2.0

    def test_node_incomplete_until_all_channels_report(self):
        tt = ScriptedLogChannel({})
        dn = ScriptedLogChannel({}, hold_after=0)  # datanode daemon dead
        channels = {"a": [tt, dn]}
        config = "[hadoop_log]\nid = hl\nnodes = a\nmax_skew = 5\n"
        core = build_core(config, services_for(channels))
        core.run_until(10.0)
        assert core.instance("hl").seconds_emitted == 0


class TestPollGap:
    def test_daemon_batches_are_drained_before_the_stale_rule_applies(self):
        """A poll interval longer than one daemon batch: the module asks
        again until each daemon has caught up, and drops nothing."""
        from repro.hadoop import DATANODE_CLASS, TASKTRACKER_CLASS, DaemonLog
        from repro.rpc import HadoopLogDaemon, InprocChannel
        from repro.rpc.daemons import MAX_BUFFERED_WINDOWS

        nodes = ["a", "b"]
        channels = {}
        for node in nodes:
            tt, dn = DaemonLog(node, "tasktracker"), DaemonLog(node, "datanode")
            tt.append(300.0, "INFO", TASKTRACKER_CLASS,
                      "LaunchTaskAction: task_0001_m_000000_0")
            dn.append(301.2, "INFO", DATANODE_CLASS,
                      "x Served block blk_1 to /10.0.0.5")
            channels[node] = [
                InprocChannel(HadoopLogDaemon(node, tt), f"hl_tt_rpcd@{node}"),
                InprocChannel(HadoopLogDaemon(node, dn), f"hl_dn_rpcd@{node}"),
            ]
        # More than one batch, less than a connection queue holds.
        interval = MAX_BUFFERED_WINDOWS + 10
        config = config_for(nodes).replace("interval = 1.0", f"interval = {interval}")
        core = build_core(config, services_for(channels))
        core.run_until(2.0 * interval + 1.0)
        module = core.instance("hl")
        assert module.seconds_dropped == 0
        assert module.seconds_emitted == 2 * interval - 2
        received = core.instance("sink").received
        assert len(received) == 2 * module.seconds_emitted
        by_second = {}
        for sample in received:
            by_second.setdefault(sample.timestamp, []).append(sample.value)
        assert all(len(rows) == 2 for rows in by_second.values())
        assert list(by_second[299.0][0]) == [0.0] * 8
        assert list(by_second[301.0][1]) == [1.0, 0, 0, 0, 0, 0, 1.0, 0]
        assert list(by_second[302.0][0]) == [1.0] + [0.0] * 7
        assert module.stalled_catchups == 0

    def test_a_daemon_stuck_on_one_stale_second_cannot_hang_the_core(self):
        """A daemon that answers every call with the same stale second is
        asked twice a poll, not forever; each cut-short catch-up counts."""
        stuck = FakeChannel({
            "collect": lambda now: SeriesRows(3, [[0.0] * 8], 2.5)
        })
        channels = {"a": ScriptedLogChannel({}), "b": stuck}
        core = build_core(config_for(["a", "b"]), services_for(channels))
        core.run_until(40.0)
        module = core.instance("hl")
        stale_polls = 40 - 8  # max_skew 5: second 3 is stale from t = 9
        assert module.stalled_catchups == stale_polls
        assert len(stuck.calls) == 41 + stale_polls


class TestConfigErrors:
    def test_empty_nodes_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            build_core("[hadoop_log]\nid = hl\nnodes = \n", services_for({}))

    def test_a_node_named_twice_rejected_before_init(self):
        with pytest.raises(ConfigError, match=r"'nodes' names \['a'\] more than once"):
            build_core("[hadoop_log]\nid = hl\nnodes = a,b,a\n", services_for({}))

    def test_missing_channel_rejected(self):
        with pytest.raises(ConfigError, match="no channel"):
            build_core(
                "[hadoop_log]\nid = hl\nnodes = a,b\n",
                services_for({"a": ScriptedLogChannel({})}),
            )

    def test_outputs_named_after_nodes(self):
        channels = {"a": ScriptedLogChannel({}), "b": ScriptedLogChannel({})}
        core = build_core(config_for(["a", "b"]), services_for(channels))
        assert set(core.dag.contexts["hl"].outputs) == {"a", "b"}
