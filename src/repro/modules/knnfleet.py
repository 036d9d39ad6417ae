"""The ``knnfleet`` module: the state classifier (paper section 3.6).

The one implementation of the paper's ``knn`` algorithm: each sample
``s`` is scaled to ``s'_i = log(1 + s_i) / sigma_i`` and the indices of
the ``k`` centroids nearest to ``s'`` are output (with the default
``k = 1``, the single nearest state index).  A *single* instance
classifies the black-box metric vectors of every monitored node: it
stacks all nodes' backlogs into one matrix and runs one scale + distance
pass (:func:`repro.analysis.kmeans.nearest_k_batch`).  The ``knn`` type
(:mod:`repro.modules.knn`) is this class bound to one input.

Inputs are one connection per node (resolved by origin, like
``analysis_bb``); outputs are one channel per node, named after the
node, each carrying the classified state index at the sample timestamp.
Centroids and sigma come from offline k-means training on fault-free
data, through the service named by ``model``, which must provide
``centroids`` (k x d array) and ``sigma`` (length-d array).

Configuration::

    [knnfleet]
    id = onenn
    model = bb_model
    k = 1
    input[v0] = sadc_slave01.vector
    input[v1] = sadc_slave02.vector
    ...
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..analysis.kmeans import nearest_k_batch
from ..core import Connection, Module, Output, RunReason
from ..core.errors import ConfigError, ModuleError


class KnnFleetModule(Module):
    type_name = "knnfleet"

    def init(self) -> None:
        ctx = self.ctx
        self._owner = f"{self.type_name} '{ctx.instance_id}'"
        self.k = ctx.param_int("k", 1)
        model = ctx.service(ctx.param_str("model", "bb_model"))
        self.centroids = np.asarray(model.centroids, dtype=float)
        self.sigma = np.asarray(model.sigma, dtype=float)
        if self.centroids.ndim != 2:
            raise ConfigError(
                f"{self._owner}: centroids must be 2-D, got shape "
                f"{self.centroids.shape}"
            )
        if self.sigma.shape != (self.centroids.shape[1],):
            raise ConfigError(
                f"{self._owner}: sigma shape {self.sigma.shape} does not "
                f"match centroid dimension {self.centroids.shape[1]}"
            )
        if not 1 <= self.k <= self.centroids.shape[0]:
            raise ConfigError(
                f"{self._owner}: k={self.k} out of range "
                f"[1, {self.centroids.shape[0]}]"
            )
        self.connections, self.outputs = self.bind()
        self.nodes = sorted(self.connections)
        self.samples_classified = 0
        ctx.trigger_after_updates(len(self.connections))

    def bind(self) -> Tuple[Dict[str, Connection], Dict[str, Output]]:
        """Each node's input connection and its output, both by node
        name: one connection per node origin, the output named after it."""
        ctx = self.ctx
        connections: Dict[str, Connection] = {}
        for group in ctx.inputs.values():
            for connection in group:
                origin = connection.origin
                node = origin.node if origin is not None else ""
                if not node:
                    raise ConfigError(
                        f"{self._owner}: input connection without node "
                        "origin (wire it from sadc outputs)"
                    )
                if node in connections:
                    raise ConfigError(
                        f"{self._owner}: two inputs for node '{node}'"
                    )
                connections[node] = connection
        if not connections:
            raise ConfigError(f"{self._owner}: needs at least one input")
        outputs = {
            node: ctx.create_output(node, connections[node].origin)
            for node in sorted(connections)
        }
        return connections, outputs

    def run(self, reason: RunReason) -> None:
        backlogs = [
            (node, self.connections[node].pop_all()) for node in self.nodes
        ]
        backlogs = [(node, samples) for node, samples in backlogs if samples]
        if not backlogs:
            return
        # One scale + one distance matrix for the entire fleet's backlog
        # (the kernel takes it 256 rows at a time, whatever the fleet).
        # Scaling is elementwise and nearest_k_batch is row-independent,
        # so each row's result is bit-identical to classifying it alone.
        try:
            raw = np.array(
                [s.value for _, samples in backlogs for s in samples],
                dtype=float,
            )
        except ValueError:
            raw = None
        if raw is None or raw.ndim != 2 or raw.shape[1] != self.sigma.shape[0]:
            # A malformed producer; the steady path never looks at shapes.
            for node, samples in backlogs:
                for sample in samples:
                    shape = np.shape(sample.value)
                    if shape != self.sigma.shape:
                        raise ModuleError(
                            f"{self._owner}: node '{node}' sent a vector of "
                            f"shape {shape}; sigma has shape {self.sigma.shape}"
                        )
            raise ModuleError(f"{self._owner}: input vectors are not numeric")
        scaled = np.log1p(np.maximum(raw, 0.0)) / self.sigma
        order = nearest_k_batch(scaled, self.centroids, self.k)
        k = self.k
        position = 0
        for node, samples in backlogs:
            out_write = self.outputs[node].write
            for sample in samples:
                indices = order[position]
                position += 1
                value = (
                    int(indices[0]) if k == 1 else [int(i) for i in indices]
                )
                out_write(value, sample.timestamp)
            self.samples_classified += len(samples)
