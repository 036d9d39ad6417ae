"""Hadoop 0.18 cluster simulator: MapReduce + HDFS + logs + log parser.

The substrate under the paper's evaluation (section 4).  ASDF itself
never reaches into this package's internals -- it observes the cluster
only through the two interfaces the real system offered: per-node
``/proc`` counters (:mod:`repro.sysstat`) and the Hadoop daemon logs,
parsed by :class:`StateVectorStream`.
"""

from .cluster import ClusterConfig, ExternalLoad, HadoopCluster
from .hdfs import Block, DataNode, NameNode
from .job import BLOCK_SIZE, MB, JobCostModel, JobSpec, TaskKind, parse_task_id, task_id
from .log_parser import StateVectorStream
from .logs import (
    DATANODE_CLASS,
    LOG_EPOCH,
    TASKTRACKER_CLASS,
    DaemonLog,
    LogRecord,
    format_line,
    format_timestamp,
    parse_timestamp,
)
from .mapreduce import (
    BugKind,
    JobState,
    JobStatus,
    JobTracker,
    MapAttempt,
    ReduceAttempt,
    ReducePhase,
    TaskAttempt,
    TaskState,
    TaskStatus,
    TaskTracker,
)
from .states import (
    DATANODE_STATES,
    TASKTRACKER_STATES,
    WHITEBOX_STATE_INDEX,
    WHITEBOX_STATES,
)

__all__ = [
    "BLOCK_SIZE",
    "Block",
    "BugKind",
    "ClusterConfig",
    "DATANODE_CLASS",
    "DATANODE_STATES",
    "DaemonLog",
    "DataNode",
    "ExternalLoad",
    "HadoopCluster",
    "JobCostModel",
    "JobSpec",
    "JobState",
    "JobStatus",
    "JobTracker",
    "LOG_EPOCH",
    "LogRecord",
    "MB",
    "MapAttempt",
    "NameNode",
    "ReduceAttempt",
    "ReducePhase",
    "StateVectorStream",
    "TASKTRACKER_CLASS",
    "TASKTRACKER_STATES",
    "TaskAttempt",
    "TaskKind",
    "TaskState",
    "TaskStatus",
    "TaskTracker",
    "WHITEBOX_STATE_INDEX",
    "WHITEBOX_STATES",
    "format_line",
    "format_timestamp",
    "parse_task_id",
    "parse_timestamp",
    "task_id",
]
