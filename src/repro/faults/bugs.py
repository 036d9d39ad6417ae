"""Application-bug faults (paper Table 2, bottom half).

These reproduce the three Hadoop JIRA bugs the paper triggered by
reverting to older Hadoop versions or mis-computing checksums.  Each is
armed as a per-node bug flag that the task state machines in
:mod:`repro.hadoop.mapreduce` consult:

* **HADOOP-1036** -- "Infinite loop at slave node due to an unhandled
  exception from a Hadoop subtask that terminates unexpectedly": map
  attempts on the node spin forever.
* **HADOOP-1152** -- "Reduce tasks fail while copying map output due to
  an attempt to rename a deleted file": reduce attempts on the node fail
  as soon as they start copying.
* **HADOOP-2080** -- "Reduce tasks hang due to a miscalculated
  checksum": reduce attempts on the node wedge at the end of the copy
  phase.

The latter two stay *dormant* until reduces actually reach their copy
phase -- the delayed manifestation behind the long fingerpointing
latencies in the paper's Figure 7(b).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hadoop.cluster import HadoopCluster
from ..hadoop.mapreduce import BugKind
from .base import Fault, FaultSpec


@dataclass
class _BugFault(Fault):
    """Common arming logic for the three JIRA bugs."""

    kind: BugKind = BugKind.MAP_HANG_1036

    def _arm(self, cluster: HadoopCluster, spec: FaultSpec) -> None:
        cluster.set_bug(spec.node, self.kind, spec.inject_time, spec.clear_time)


@dataclass
class MapHang1036(_BugFault):
    kind: BugKind = BugKind.MAP_HANG_1036

    name = "HADOOP-1036"
    reported_failure = (
        "Infinite loop at slave node due to an unhandled exception from a "
        "Hadoop subtask that terminates unexpectedly"
    )


@dataclass
class ShuffleFail1152(_BugFault):
    kind: BugKind = BugKind.SHUFFLE_FAIL_1152

    name = "HADOOP-1152"
    reported_failure = (
        "Reduce tasks fail while copying map output due to an attempt to "
        "rename a deleted file"
    )


@dataclass
class ReduceHang2080(_BugFault):
    kind: BugKind = BugKind.REDUCE_HANG_2080

    name = "HADOOP-2080"
    reported_failure = "Reduce tasks hang due to a miscalculated checksum"
