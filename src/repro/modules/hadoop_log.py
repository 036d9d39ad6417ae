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
from collections import Counter
from itertools import chain
from typing import Dict, List, Sequence, Tuple

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
from ..rpc.protocol import ProtocolError, RemoteError

#: Name of the service carrying node -> RPC channel mappings.
HADOOP_LOG_CHANNEL_SERVICE = "hadoop_log_channels"


def check_nodes(values):
    """The fleet collectors' ``nodes``: some node, none twice."""
    nodes = values["nodes"]
    if not nodes:
        return [("nodes", "'nodes' is empty: name at least one node")]
    twice = sorted(node for node, count in Counter(nodes).items() if count > 1)
    return [("nodes", f"'nodes' names {twice} more than once")] if twice else []


class HadoopLogModule(Module):
    type_name = "hadoop_log"
    params = (
        ParamSpec("nodes", "list", required=True),
        ParamSpec("max_skew", "float", default="15.0", positive=True),
    ) + SCHEDULE_PARAMS
    ports = ()
    trigger = TriggerSpec.periodic()
    param_check = staticmethod(check_nodes)

    @classmethod
    def outputs_for(cls, params):
        return param_value(cls.params, params, "nodes") or []

    def init(self) -> None:
        ctx = self.ctx
        self.nodes: List[str] = ctx.param_list("nodes")
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
        self._writes = [self.outputs[node].write for node in self.nodes]
        self.max_skew = ctx.param_float("max_skew")
        #: (channel, row of its node) in poll order; a second is complete
        #: once every one of them has reported it.
        self._sources = [
            (channel, row)
            for row, node in enumerate(self.nodes)
            for channel in self.channels[node]
        ]
        #: Report rows in poll order, if all nodes have as many sources.
        same = len({len(self.channels[node]) for node in self.nodes}) == 1
        self._in_order = [row for _, row in self._sources] if same else None
        #: second -> (row of each report so far, its vector)
        self._pending: Dict[int, Tuple[List[int], List[Sequence[float]]]] = {}
        self._emitted_through = -1
        self.seconds_emitted = 0
        self.seconds_dropped = 0
        #: Failed ``collect`` calls per node: skipped, asked again next poll.
        self.node_poll_errors = dict.fromkeys(self.nodes, 0)
        #: Catch-ups cut short: a daemon's newest second stopped advancing.
        self.stalled_catchups = 0
        ctx.schedule_every(ctx.param_float("interval"), ctx.param_float("phase"))

    poll_errors = property(lambda self: sum(self.node_poll_errors.values()))

    def run(self, reason: RunReason) -> None:
        now = self.ctx.clock.now()
        stale_cutoff = int(now - self.max_skew)
        for channel, row in self._sources:
            # A daemon serves a bounded batch per call: after a poll gap
            # ask again until it has caught up to within the skew bound,
            # or the rest would be dropped as stale before it arrives --
            # but only while each answer brings a newer second.
            previous = -math.inf
            latest = self._collect(channel, row, now)
            while previous < latest < stale_cutoff:
                previous, latest = latest, self._collect(channel, row, now)
            if latest <= previous:
                self.stalled_catchups += 1
        self._emit_synchronized()
        self._drop_stale(stale_cutoff)

    def _collect(self, channel, row: int, now: float) -> float:
        """One ``collect`` call; the newest second it brought (``inf``
        when it brought none)."""
        try:
            result = channel.call("collect", now=now)
        except (ProtocolError, RemoteError):
            self.node_poll_errors[self.nodes[row]] += 1
            return math.inf
        rows, first = result.rows, result.first
        if not rows:
            return math.inf
        pending = self._pending
        for at in range(max(0, self._emitted_through + 1 - first), len(rows)):
            entry = pending.get(first + at)
            if entry is None:
                entry = pending[first + at] = ([], [])
            entry[0].append(row)
            entry[1].append(rows[at])
        return first + len(rows) - 1

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
            width = len(vectors[0])
            reports = np.fromiter(
                chain.from_iterable(vectors), float, len(vectors) * width
            ).reshape(-1, width)
            if rows == self._in_order:
                block = reports.reshape(len(self.nodes), -1, width).sum(axis=1, initial=0.0)
            else:
                block = np.zeros((len(self.nodes), width))
                np.add.at(block, rows, reports)
            timestamp = float(self._emitted_through)
            for write, vector in zip(self._writes, block):
                write(vector, timestamp)
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
