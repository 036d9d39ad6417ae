"""The ``knn`` analysis module (paper section 3.6).

"The knn (k-nearest neighbors) module is used to match sample points
with centroids corresponding to known system states.  It takes as
configuration parameters k, a list of centroids, and a standard
deviation vector ... For each input sample s, a vector s' is computed as
``s'_i = log(1 + s_i) / sigma_i`` and the Euclidean distance between s'
and each centroid is computed.  The indices of the k nearest centroids
to s' in the configuration are output."

This type is :class:`~repro.modules.knnfleet.KnnFleetModule` (the
algorithm, ``k``, ``model``, the errors) bound to the one connection
wired to ``input``, writing ``output0``.  A fleet-sized deployment uses
one ``knnfleet`` instead: same values, one run per tick instead of N.

Configuration::

    [knn]
    id = onenn0
    input[input] = sadc_slave01.vector
    model = bb_model
    k = 1
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core import Connection, Output
from .knnfleet import KnnFleetModule


class KnnModule(KnnFleetModule):
    type_name = "knn"

    def bind(self) -> Tuple[Dict[str, Connection], Dict[str, Output]]:
        connection = self.ctx.input("input").single()
        origin = connection.origin  # may be None: any vector source will do
        node = origin.node if origin is not None else ""
        output = self.ctx.create_output("output0", origin)
        return {node: connection}, {node: output}
