"""The ``sadc`` data-collection module (paper section 3.5).

One instance calls every node's ``sadc_rpcd`` daemon once per sampling
interval (the paper's traffic) and writes, per node, the 64-metric
node-level vector on an output named after the node, plus one scalar
output ``<node>.<metric>`` per metric named in ``metrics``.

Configuration::

    [sadc]
    id = sadc
    nodes = slave01,slave02,slave03   ; which daemons to poll
    interval = 1.0                    ; seconds between samples
    metrics = cpu_user_pct,net_rxkb_per_s   ; optional scalar outputs

The ``sadc_channels`` service maps each node to its RPC channel
(:class:`repro.rpc.RpcClient` or :class:`repro.rpc.InprocChannel`).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core import (
    SCHEDULE_PARAMS,
    Module,
    Origin,
    ParamSpec,
    RunReason,
    TriggerSpec,
    param_value,
)
from ..core.errors import ConfigError
from ..rpc.protocol import MetricRow, ProtocolError, RemoteError
from ..sysstat.metrics import NODE_METRICS
from .hadoop_log import check_nodes

#: Name of the service carrying node -> RPC channel mappings.
SADC_CHANNEL_SERVICE = "sadc_channels"


class SadcModule(Module):
    type_name = "sadc"
    params = (
        ParamSpec("nodes", "list", required=True),
        ParamSpec("metrics", "list", default="", choices=NODE_METRICS),
    ) + SCHEDULE_PARAMS
    ports = ()
    trigger = TriggerSpec.periodic()
    param_check = staticmethod(check_nodes)

    @classmethod
    def outputs_for(cls, params):
        metrics = param_value(cls.params, params, "metrics")
        return [
            name
            for node in param_value(cls.params, params, "nodes") or []
            for name in [node] + [f"{node}.{metric}" for metric in metrics]
        ]

    def init(self) -> None:
        ctx = self.ctx
        self.nodes = ctx.param_list("nodes")
        channels: Dict[str, object] = ctx.service(SADC_CHANNEL_SERVICE)
        missing = [node for node in self.nodes if node not in channels]
        if missing:
            raise ConfigError(
                f"sadc instance '{ctx.instance_id}': no channel registered "
                f"for nodes {missing}"
            )
        metrics = ctx.param_list("metrics")
        #: (node, channel, vector write, [(metric, scalar write)]) per node.
        self._polls = []
        for node in self.nodes:
            vector = ctx.create_output(node, Origin(node, "sadc", "node_vector"))
            scalars = [
                (name, ctx.create_output(f"{node}.{name}", Origin(node, "sadc", name)).write)
                for name in metrics
            ]
            self._polls.append((node, channels[node], vector.write, scalars))
        #: Samples written and polls failed, per node; a failed poll is a
        #: sample skipped, not raised.
        self.node_samples = dict.fromkeys(self.nodes, 0)
        self.node_poll_errors = dict.fromkeys(self.nodes, 0)
        self.priming_skips = 0
        ctx.schedule_every(ctx.param_float("interval"), ctx.param_float("phase"))

    samples_collected = property(lambda self: sum(self.node_samples.values()))
    poll_errors = property(lambda self: sum(self.node_poll_errors.values()))

    def run(self, reason: RunReason) -> None:
        now = self.ctx.clock.now()
        node_samples = self.node_samples
        for node, channel, write, metric_writes in self._polls:
            try:
                result = channel.call("sample", now=now)
            except (ProtocolError, RemoteError):
                self.node_poll_errors[node] += 1
                continue
            if result is None:
                self.priming_skips += 1
                continue
            node_metrics = result["node"]
            if type(node_metrics) is MetricRow and (
                    node_metrics.names is NODE_METRICS
                    or node_metrics.names == NODE_METRICS):
                # Off the binary path: the decoded row is the vector.
                vector = node_metrics.row
            else:
                vector = np.array([node_metrics[name] for name in NODE_METRICS])
            write(vector, now)
            for name, metric_write in metric_writes:
                metric_write(float(node_metrics[name]), now)
            node_samples[node] += 1

    def close(self) -> None:
        for _, channel, _, _ in self._polls:
            close = getattr(channel, "close", None)
            if callable(close):
                close()
