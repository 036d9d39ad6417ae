"""The ``hadoop_log`` data-collection module (paper sections 3.7, 4.4).

A *single* instance manages every monitored node, because the white-box
pipeline needs cross-node data synchronization that fpt-core's DAG does
not provide -- exactly the design the paper describes: "cross-instance
synchronization is needed within the hadoop_log module to ensure that
data outputs for each node is updated with Hadoop log data from the same
time point".

Each poll, the module collects newly stable per-second state vectors
from every node's ``hadoop_log_rpcd`` into one (nodes x states) block per
second.  A second is emitted -- one write per node, its row of the block,
all carrying the same timestamp -- only once *all* nodes have
produced it; seconds that remain incomplete past ``max_skew`` seconds
are dropped for every node ("if one or more nodes does not contain data
for a particular timestamp, this data is dropped").

Configuration::

    [hadoop_log]
    id = hl
    nodes = slave01,slave02,slave03
    interval = 1.0
    max_skew = 15

Outputs: one per node, named after the node, each carrying an
8-component white-box state vector per emitted second.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core import Module, Origin, RunReason
from ..core.errors import ConfigError
from ..rpc.protocol import ProtocolError, RemoteError

#: Name of the service carrying node -> RPC channel mappings.
HADOOP_LOG_CHANNEL_SERVICE = "hadoop_log_channels"


class HadoopLogModule(Module):
    type_name = "hadoop_log"

    def init(self) -> None:
        ctx = self.ctx
        ctx.require_no_inputs()
        self.nodes: List[str] = ctx.param_list("nodes")
        if not self.nodes:
            raise ConfigError(
                f"hadoop_log instance '{ctx.instance_id}': 'nodes' is empty"
            )
        channels: Dict[str, object] = ctx.service(HADOOP_LOG_CHANNEL_SERVICE)
        missing = [node for node in self.nodes if node not in channels]
        if missing:
            raise ConfigError(
                f"hadoop_log instance '{ctx.instance_id}': no channel for "
                f"nodes {missing}"
            )
        # Each node may expose several daemons (hl-tt and hl-dn in the
        # paper's Table 4); their state vectors are summed per second.
        self.channels: Dict[str, List[object]] = {}
        for node in self.nodes:
            entry = channels[node]
            self.channels[node] = (
                list(entry) if isinstance(entry, (list, tuple)) else [entry]
            )
        self.outputs = {
            node: ctx.create_output(
                node, Origin(node=node, source="hadoop_log", metric="state_vector")
            )
            for node in self.nodes
        }
        self.max_skew = ctx.param_float("max_skew", 15.0)
        #: (channel, row of its node) in poll order; a second is complete
        #: once every one of them has reported it.
        self._sources = [
            (channel, row)
            for row, node in enumerate(self.nodes)
            for channel in self.channels[node]
        ]
        #: second -> (row of each report so far, its vector)
        self._pending: Dict[int, Tuple[List[int], List[Sequence[float]]]] = {}
        self._emitted_through = -1
        self.seconds_emitted = 0
        self.seconds_dropped = 0
        #: ``collect`` calls that failed: skipped, and asked again next poll.
        self.poll_errors = 0
        ctx.schedule_every(
            ctx.param_float("interval", 1.0), ctx.param_float("phase", 0.0)
        )

    def run(self, reason: RunReason) -> None:
        now = self.ctx.clock.now()
        stale_cutoff = int(now - self.max_skew)
        for channel, row in self._sources:
            # A daemon serves a bounded batch per call: after a poll gap
            # ask again until it has caught up to within the skew bound,
            # or the rest would be dropped as stale before it arrives.
            while self._collect(channel, row, now) < stale_cutoff:
                pass
        self._emit_synchronized()
        self._drop_stale(stale_cutoff)

    def _collect(self, channel, row: int, now: float) -> float:
        """One ``collect`` call; the newest second it brought (``inf``
        when it brought none)."""
        try:
            result = channel.call("collect", now=now)
        except (ProtocolError, RemoteError):
            self.poll_errors += 1
            return math.inf
        seconds = result["seconds"]
        if not seconds:
            return math.inf
        pending = self._pending
        for second, vector in zip(seconds, result["vectors"]):
            second = int(second)
            if second <= self._emitted_through:
                continue
            entry = pending.get(second)
            if entry is None:
                entry = pending[second] = ([], [])
            entry[0].append(row)
            entry[1].append(vector)
        return seconds[-1]

    def _complete(self, second: int) -> bool:
        entry = self._pending.get(second)
        return entry is not None and len(entry[0]) >= len(self._sources)

    def _emit_synchronized(self) -> None:
        """Emit every second available on all nodes, in time order.

        The next second being incomplete stops it: nothing newer may
        overtake (emission is strictly in time order).
        """
        while self._complete(self._emitted_through + 1):
            self._emitted_through += 1
            rows, vectors = self._pending.pop(self._emitted_through)
            # One (nodes x states) block a second: every report summed
            # into its node's row, every output handed its row.
            block = np.zeros((len(self.nodes), len(vectors[0])))
            np.add.at(block, rows, vectors)
            timestamp = float(self._emitted_through)
            for node, vector in zip(self.nodes, block):
                self.outputs[node].write(vector, timestamp)
            self.seconds_emitted += 1

    def _drop_stale(self, stale_cutoff: int) -> None:
        """Give up on seconds that stayed incomplete past the skew bound."""
        # A complete second is not stale: the emit loop will take it.
        while (self._emitted_through + 1 < stale_cutoff
               and not self._complete(self._emitted_through + 1)):
            self._emitted_through += 1
            self._pending.pop(self._emitted_through, None)
            self.seconds_dropped += 1

    def close(self) -> None:
        for channels in self.channels.values():
            for channel in channels:
                close = getattr(channel, "close", None)
                if callable(close):
                    close()
