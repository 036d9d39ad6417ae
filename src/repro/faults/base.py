"""Fault-injection interface.

A :class:`Fault` knows how to arm itself against a
:class:`repro.hadoop.HadoopCluster` on a chosen node at a chosen time,
and produces the :class:`repro.analysis.GroundTruth` the evaluation
scores against.  The six concrete faults reproduce the paper's Table 2
exactly -- see :mod:`repro.faults.resource` and :mod:`repro.faults.bugs`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from ..analysis.metrics import GroundTruth
from ..hadoop.cluster import HadoopCluster


@dataclass(frozen=True)
class FaultSpec:
    """Where and when a fault is injected."""

    node: str
    inject_time: float
    clear_time: Optional[float] = None


class Fault(abc.ABC):
    """One injectable fault from the paper's Table 2."""

    #: Catalog name, e.g. ``"CPUHog"`` or ``"HADOOP-1036"``.
    name: str = ""
    #: The reported failure this fault simulates (Table 2, middle column).
    reported_failure: str = ""

    def arm(self, cluster: HadoopCluster, spec: FaultSpec) -> None:
        """Register the fault with the cluster; takes effect at inject_time.

        Raises ``ValueError`` when ``spec.node`` is not one of the
        cluster's slaves.
        """
        if spec.node not in cluster.slave_names:
            raise ValueError(
                f"{self.name}: the cluster has no slave {spec.node!r} "
                f"(slaves: {', '.join(cluster.slave_names)})"
            )
        self._arm(cluster, spec)

    @abc.abstractmethod
    def _arm(self, cluster: HadoopCluster, spec: FaultSpec) -> None:
        """Register the fault against ``spec.node``, a slave of ``cluster``."""

    def ground_truth(self, spec: FaultSpec) -> GroundTruth:
        return GroundTruth(
            faulty_node=spec.node,
            inject_time=spec.inject_time,
            clear_time=spec.clear_time,
        )
