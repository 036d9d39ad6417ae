"""Hadoop-format log generation and storage.

The white-box data source in the paper is Hadoop's *natively generated*
text logs -- ASDF deliberately avoids instrumenting Hadoop itself
(section 4.3).  The simulator therefore emits log lines in the log4j
format Hadoop 0.18 used::

    2008-04-15 14:23:15,324 INFO org.apache.hadoop.mapred.TaskTracker: LaunchTaskAction: task_0001_m_000096_0

and the log parser (:mod:`repro.hadoop.log_parser`) works purely from
that text, exactly as the real framework worked from files on disk.

:class:`DaemonLog` is an append-only in-memory log file with positional
reads, standing in for the tailed file; the RPC daemons read "new lines
since last poll" the way the real ``hadoop_log_rpcd`` did.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: All simulated timestamps are offsets from this base, matching the
#: experiment epoch in the paper's Figure 5 log snippet.
LOG_EPOCH = datetime.datetime(2008, 4, 15, 14, 0, 0)

TASKTRACKER_CLASS = "org.apache.hadoop.mapred.TaskTracker"
DATANODE_CLASS = "org.apache.hadoop.dfs.DataNode"
JOBTRACKER_CLASS = "org.apache.hadoop.mapred.JobTracker"


def format_timestamp(sim_time: float) -> str:
    """Render simulated seconds as a Hadoop log timestamp."""
    moment = LOG_EPOCH + datetime.timedelta(seconds=sim_time)
    return moment.strftime("%Y-%m-%d %H:%M:%S") + f",{int((sim_time % 1) * 1000):03d}"


def parse_timestamp(text: str) -> float:
    """Parse a Hadoop log timestamp back into simulated seconds.

    The layout is fixed-width (``YYYY-MM-DD HH:MM:SS[,mmm]``), so the
    fields are sliced out; anything else raises ``ValueError``, as does
    a field out of its range.
    """
    fields = (text[0:4], text[5:7], text[8:10], text[11:13], text[14:16], text[17:19])
    if (len(text) < 19 or text[19:20] not in ("", ",")
            or text[4] + text[7] + text[10] + text[13] + text[16] != "-- ::"
            or not "".join(fields).isdigit()):
        raise ValueError(f"not a Hadoop log timestamp: {text!r}")
    moment = datetime.datetime(*map(int, fields))
    seconds = (moment - LOG_EPOCH).total_seconds()
    millis = text[20:]
    if millis:
        seconds += int(millis) / 1000.0
    return seconds


def format_line(
    sim_time: float, level: str, java_class: str, message: str
) -> str:
    """Render one full Hadoop log line."""
    return f"{format_timestamp(sim_time)} {level} {java_class}: {message}"


@dataclass(frozen=True)
class LogRecord:
    """One log line with its (simulated) emission time."""

    time: float
    line: str


class DaemonLog:
    """Append-only log of one Hadoop daemon (tasktracker or datanode)."""

    def __init__(self, node: str, daemon: str) -> None:
        self.node = node
        self.daemon = daemon
        #: The records, oldest first; append-only, so their count says it grew.
        self.entries: List[LogRecord] = []

    def append(self, sim_time: float, level: str, java_class: str, message: str) -> None:
        self.entries.append(
            LogRecord(time=sim_time, line=format_line(sim_time, level, java_class, message))
        )

    def __len__(self) -> int:
        return len(self.entries)

    def records(self) -> List[LogRecord]:
        return list(self.entries)

    def read_from(self, offset: int) -> Tuple[List[LogRecord], int]:
        """Return records at index >= ``offset`` plus the new offset.

        This is the "tail the log file" primitive the per-node
        ``hadoop_log_rpcd`` uses for incremental collection.
        """
        if offset < 0:
            offset = 0
        new_records = self.entries[offset:]
        return new_records, len(self.entries)

    def text(self) -> str:
        """The whole log as file content (for offline analysis)."""
        return "\n".join(record.line for record in self.entries)

    def last_time(self) -> Optional[float]:
        return self.entries[-1].time if self.entries else None
