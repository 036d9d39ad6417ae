"""The ``sadc`` data-collection module (paper section 3.5).

Polls one node's ``sadc_rpcd`` daemon once per sampling interval and
exposes the black-box metrics as fpt-core outputs: a ``vector`` output
carrying the full 64-metric node-level vector, plus (optionally) one
scalar output per metric named in the ``metrics`` parameter.

Configuration::

    [sadc]
    id = sadc_slave01
    node = slave01          ; which daemon to poll
    interval = 1.0          ; seconds between samples
    metrics = cpu_user_pct,net_rxkb_per_s   ; optional scalar outputs

The connection to the remote daemon is resolved through the
``sadc_channels`` service: a mapping from node name to an RPC channel
(:class:`repro.rpc.RpcClient` or :class:`repro.rpc.InprocChannel`).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core import Module, Origin, RunReason
from ..core.errors import ConfigError
from ..rpc.protocol import MetricRow, ProtocolError, RemoteError
from ..sysstat.metrics import NODE_METRICS

#: Name of the service carrying node -> RPC channel mappings.
SADC_CHANNEL_SERVICE = "sadc_channels"


class SadcModule(Module):
    type_name = "sadc"

    def init(self) -> None:
        ctx = self.ctx
        ctx.require_no_inputs()
        self.node = ctx.param_str("node")
        channels: Dict[str, object] = ctx.service(SADC_CHANNEL_SERVICE)
        if self.node not in channels:
            raise ConfigError(
                f"sadc instance '{ctx.instance_id}': no channel registered "
                f"for node '{self.node}'"
            )
        self.channel = channels[self.node]

        self.vector_out = ctx.create_output(
            "vector", Origin(node=self.node, source="sadc", metric="node_vector")
        )
        self.metric_outputs = {}
        for name in ctx.param_list("metrics", default=[]):
            if name not in NODE_METRICS:
                raise ConfigError(
                    f"sadc instance '{ctx.instance_id}': unknown metric "
                    f"'{name}'"
                )
            self.metric_outputs[name] = ctx.create_output(
                name, Origin(node=self.node, source="sadc", metric=name)
            )
        self.samples_collected = 0
        self.priming_skips = 0
        #: Polls the channel failed; each is a sample skipped, not raised.
        self.poll_errors = 0
        ctx.schedule_every(
            ctx.param_float("interval", 1.0), ctx.param_float("phase", 0.0)
        )

    def run(self, reason: RunReason) -> None:
        now = self.ctx.clock.now()
        try:
            result = self.channel.call("sample", now=now)
        except (ProtocolError, RemoteError):
            self.poll_errors += 1
            return
        if result is None:
            self.priming_skips += 1
            return
        node_metrics = result["node"]
        if (isinstance(node_metrics, MetricRow)
                and node_metrics.names == NODE_METRICS):
            # Off the binary path: the decoded row is the vector.
            vector = node_metrics.row
        else:
            vector = np.array([node_metrics[name] for name in NODE_METRICS])
        self.vector_out.write(vector, now)
        for name, output in self.metric_outputs.items():
            output.write(float(node_metrics[name]), now)
        self.samples_collected += 1

    def close(self) -> None:
        close = getattr(self.channel, "close", None)
        if callable(close):
            close()
