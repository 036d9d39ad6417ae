"""Tests for the sadc data-collection module."""

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
node = slave01
interval = 1.0

[print]
id = sink
input[a] = s.vector
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
node = slave01
metrics = cpu_user_pct,net_rxkb_per_s

[print]
id = sink
input[a] = s.cpu_user_pct
"""
        channel = FakeChannel({"sample": lambda now: sample_response(cpu_user=70.0)})
        core = build_core(config, make_services(channel))
        core.run_until(0.0)
        assert [s.value for s in core.instance("sink").received] == [70.0]

    def test_metric_output_origin_names_node_and_metric(self):
        config = """
[sadc]
id = s
node = slave01
metrics = cpu_user_pct
"""
        channel = FakeChannel({"sample": lambda now: sample_response()})
        core = build_core(config, make_services(channel))
        origin = core.dag.contexts["s"].outputs["cpu_user_pct"].origin
        assert origin.node == "slave01"
        assert origin.metric == "cpu_user_pct"

    def test_unknown_metric_rejected_at_init(self):
        config = "[sadc]\nid = s\nnode = slave01\nmetrics = bogus_metric\n"
        with pytest.raises(ConfigError, match="unknown metric"):
            build_core(config, make_services(FakeChannel()))

    def test_unregistered_node_rejected_at_init(self):
        config = "[sadc]\nid = s\nnode = slave99\n"
        with pytest.raises(ConfigError, match="no channel registered"):
            build_core(config, make_services(FakeChannel()))

    def test_close_closes_channel(self):
        channel = FakeChannel({"sample": lambda now: sample_response()})
        core = build_core(BASIC_CONFIG, make_services(channel))
        core.close()
        assert channel.closed


class TestRowHandedThrough:
    """On the binary path the decoded row *is* the vector written."""

    CONFIG = BASIC_CONFIG.replace(
        "interval = 1.0", "interval = 1.0\nmetrics = cpu_idle_pct"
    ) + "\n[print]\nid = idle\ninput[a] = s.cpu_idle_pct\n"

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
