"""Tests for the sadc data-collection module: one instance, every node."""

import numpy as np
import pytest

from repro.core import ConfigError
from repro.modules.sadc import SADC_CHANNEL_SERVICE
from repro.sysstat import NODE_METRICS

from .helpers import FakeChannel, build_core


def sample_response(cpu_user: float = 25.0):
    node = {name: 0.0 for name in NODE_METRICS}
    node["cpu_user_pct"] = cpu_user
    node["cpu_idle_pct"] = 100.0 - cpu_user
    return {"timestamp": 0.0, "node": node, "nics": {}, "processes": {}}


def make_services(channel: FakeChannel):
    return {SADC_CHANNEL_SERVICE: {"slave01": channel}}


BASIC_CONFIG = """
[sadc]
id = s
nodes = slave01
interval = 1.0

[print]
id = sink
input[a] = s.slave01
"""


class TestSadcModule:
    def test_polls_once_per_interval(self):
        channel = FakeChannel({"sample": lambda now: sample_response()})
        core = build_core(BASIC_CONFIG, make_services(channel))
        core.run_until(5.0)
        assert len(channel.calls) == 6  # t = 0..5

    def test_vector_output_is_catalog_ordered(self):
        channel = FakeChannel({"sample": lambda now: sample_response(cpu_user=33.0)})
        core = build_core(BASIC_CONFIG, make_services(channel))
        core.run_until(1.0)
        vectors = [s.value for s in core.instance("sink").received]
        index = NODE_METRICS.index("cpu_user_pct")
        assert vectors[0][index] == pytest.approx(33.0)
        assert vectors[0].shape == (64,)

    def test_priming_none_skipped(self):
        responses = iter([None, sample_response(), sample_response()])
        channel = FakeChannel({"sample": lambda now: next(responses)})
        core = build_core(BASIC_CONFIG, make_services(channel))
        core.run_until(2.0)
        module = core.instance("s")
        assert module.priming_skips == 1
        assert module.samples_collected == 2
        assert module.node_samples == {"slave01": 2}

    def test_a_channel_error_is_a_skipped_sample(self):
        from repro.rpc.protocol import RemoteError

        def respond(now):
            if now == 1.0:
                raise RemoteError("daemon raised")
            return sample_response()

        core = build_core(BASIC_CONFIG, make_services(FakeChannel({"sample": respond})))
        core.run_until(3.0)
        module = core.instance("s")
        assert module.poll_errors == 1
        assert module.node_poll_errors == {"slave01": 1}
        assert module.samples_collected == 3
        assert [s.timestamp for s in core.instance("sink").received] == [0.0, 2.0, 3.0]

    def test_any_other_error_still_leaves_run(self):
        def respond(now):
            raise KeyError("not the channel's")

        core = build_core(BASIC_CONFIG, make_services(FakeChannel({"sample": respond})))
        with pytest.raises(KeyError):
            core.run_until(0.0)

    def test_named_metric_outputs(self):
        config = """
[sadc]
id = s
nodes = slave01
metrics = cpu_user_pct,net_rxkb_per_s

[print]
id = sink
input[a] = s.slave01.cpu_user_pct
"""
        channel = FakeChannel({"sample": lambda now: sample_response(cpu_user=70.0)})
        core = build_core(config, make_services(channel))
        core.run_until(0.0)
        assert [s.value for s in core.instance("sink").received] == [70.0]

    def test_metric_output_origin_names_node_and_metric(self):
        config = """
[sadc]
id = s
nodes = slave01
metrics = cpu_user_pct
"""
        channel = FakeChannel({"sample": lambda now: sample_response()})
        core = build_core(config, make_services(channel))
        origin = core.dag.contexts["s"].outputs["slave01.cpu_user_pct"].origin
        assert origin.node == "slave01"
        assert origin.metric == "cpu_user_pct"

    def test_unknown_metric_rejected_at_init(self):
        config = "[sadc]\nid = s\nnodes = slave01\nmetrics = bogus_metric\n"
        with pytest.raises(ConfigError, match=r"unknown item\(s\) \['bogus_metric'\]"):
            build_core(config, make_services(FakeChannel()))

    def test_unregistered_node_rejected_at_init(self):
        config = "[sadc]\nid = s\nnodes = slave01,slave99\n"
        with pytest.raises(ConfigError, match=r"no channel registered for nodes \['slave99'\]"):
            build_core(config, make_services(FakeChannel()))

    def test_close_closes_channel(self):
        channel = FakeChannel({"sample": lambda now: sample_response()})
        core = build_core(BASIC_CONFIG, make_services(channel))
        core.close()
        assert channel.closed


FLEET_CONFIG = """
[sadc]
id = s
nodes = slave01,slave02,slave03
metrics = cpu_user_pct

[print]
id = sink
input[a] = s.slave01
input[b] = s.slave02
input[c] = s.slave03
input[d] = s.slave02.cpu_user_pct
"""


def fleet_channels(respond):
    """One fake channel per node; ``respond(node, now)`` answers each."""
    return {
        node: FakeChannel({"sample": lambda now, node=node: respond(node, now)})
        for node in ("slave01", "slave02", "slave03")
    }


class TestOneInstanceForTheFleet:
    def test_one_sample_call_per_node_per_run(self):
        channels = fleet_channels(lambda node, now: sample_response())
        core = build_core(FLEET_CONFIG, {SADC_CHANNEL_SERVICE: channels})
        core.run_until(4.0)
        assert core.scheduler.runs_by_instance["s"] == 5
        for channel in channels.values():
            assert channel.calls == [("sample", {"now": float(t)}) for t in range(5)]

    def test_outputs_are_named_after_their_nodes(self):
        channels = fleet_channels(lambda node, now: sample_response())
        core = build_core(FLEET_CONFIG, {SADC_CHANNEL_SERVICE: channels})
        outputs = core.dag.contexts["s"].outputs
        assert list(outputs) == [
            "slave01", "slave01.cpu_user_pct", "slave02",
            "slave02.cpu_user_pct", "slave03", "slave03.cpu_user_pct",
        ]
        assert {(o.origin.node, o.origin.metric) for o in outputs.values()} == {
            (node, metric)
            for node in ("slave01", "slave02", "slave03")
            for metric in ("node_vector", "cpu_user_pct")
        }

    def test_each_node_writes_its_own_vector(self):
        cpu = {"slave01": 10.0, "slave02": 20.0, "slave03": 30.0}
        channels = fleet_channels(lambda node, now: sample_response(cpu[node]))
        core = build_core(FLEET_CONFIG, {SADC_CHANNEL_SERVICE: channels})
        core.run_until(0.0)
        index = NODE_METRICS.index("cpu_user_pct")
        received = [s.value for s in core.instance("sink").received]
        assert [v[index] for v in received[:3]] == [10.0, 20.0, 30.0]
        assert received[3] == 20.0

    def test_a_failing_node_costs_its_own_samples_only(self):
        from repro.rpc.protocol import ProtocolError

        def respond(node, now):
            if node == "slave02" and now in (1.0, 2.0):
                raise ProtocolError("bad frame")
            return None if now == 0.0 and node == "slave03" else sample_response()

        core = build_core(
            FLEET_CONFIG, {SADC_CHANNEL_SERVICE: fleet_channels(respond)}
        )
        core.run_until(3.0)
        module = core.instance("s")
        assert module.node_samples == {"slave01": 4, "slave02": 2, "slave03": 3}
        assert module.node_poll_errors == {"slave01": 0, "slave02": 2, "slave03": 0}
        assert module.samples_collected == 9
        assert module.poll_errors == 2
        assert module.priming_skips == 1

    def test_close_closes_every_channel(self):
        channels = fleet_channels(lambda node, now: sample_response())
        core = build_core(FLEET_CONFIG, {SADC_CHANNEL_SERVICE: channels})
        core.close()
        assert all(channel.closed for channel in channels.values())


class TestRowHandedThrough:
    """On the binary path the decoded row *is* the vector written."""

    CONFIG = BASIC_CONFIG.replace(
        "interval = 1.0", "interval = 1.0\nmetrics = cpu_idle_pct"
    ) + "\n[print]\nid = idle\ninput[a] = s.slave01.cpu_idle_pct\n"

    def test_fleet_row_reaches_vector_out_without_a_dict(self, monkeypatch):
        from repro.hadoop import ClusterConfig, HadoopCluster
        from repro.rpc import InprocChannel, MetricRow, SadcDaemon

        cluster = HadoopCluster(ClusterConfig(num_slaves=2, seed=3))
        daemon = SadcDaemon("slave01", cluster.procfs("slave01"))
        channel = InprocChannel(daemon, "sadc@slave01")
        results = []
        call = channel.call
        monkeypatch.setattr(
            channel, "call",
            lambda method, **params: results.append(call(method, **params))
            or results[-1],
        )
        core = build_core(self.CONFIG, make_services(channel))
        for now in (0.0, 1.0, 2.0):
            cluster.step()
            core.run_until(now)
        written = [s.value for s in core.instance("sink").received]
        decoded = [r["node"] for r in results if r is not None]
        assert len(written) == len(decoded) == 2
        for vector, node in zip(written, decoded):
            assert type(node) is MetricRow and vector is node.row
            assert vector.shape == (64,) and vector.dtype == np.float64
        idle = NODE_METRICS.index("cpu_idle_pct")
        assert [s.value for s in core.instance("idle").received] == [
            float(v[idle]) for v in written
        ]

    def test_row_in_another_order_is_read_by_name(self):
        from repro.rpc import MetricRow

        names = tuple(reversed(NODE_METRICS))
        row = np.arange(64.0)
        channel = FakeChannel({"sample": lambda now: {"node": MetricRow(names, row)}})
        core = build_core(BASIC_CONFIG, make_services(channel))
        core.run_until(0.0)
        (sample,) = core.instance("sink").received
        assert sample.value.tolist() == row[::-1].tolist()
