"""MapReduce engine: JobTracker, TaskTrackers, and task state machines.

Follows Hadoop 0.18's master/slave architecture (paper section 4.1): a
single JobTracker schedules map and reduce tasks onto slave TaskTrackers
(two map slots + two reduce slots each), tracks their progress through
heartbeats, and re-executes failed or timed-out attempts.  TaskTrackers
write the log lines the white-box analysis parses (LaunchTaskAction,
per-phase progress, "Task ... is done").

Task attempts are *activities* in the simulation sense: each tick they
declare CPU/disk/network demands against :class:`repro.sim.TickContext`
and then advance by whatever was granted.  The three application bugs of
the paper's Table 2 hook directly into these state machines:

* HADOOP-1036 -- map attempts on the sick node spin forever (infinite
  loop: full CPU demand, zero progress, no completion line);
* HADOOP-1152 -- reduce attempts on the sick node throw while copying
  map output and fail immediately, crash-looping through re-execution;
* HADOOP-2080 -- reduce attempts on the sick node hang at the end of the
  copy phase (miscomputed checksum), consuming nothing.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

from ..sim.engine import TickContext
from ..sim.node import SimNode
from .hdfs import Block, DataNode, NameNode
from .job import MB, JobSpec, TaskKind, task_id
from .logs import TASKTRACKER_CLASS, DaemonLog

#: Hadoop's default task timeout (mapred.task.timeout), seconds.
TASK_TIMEOUT_S = 600.0

#: Maximum attempts per task before it is declared failed (Hadoop default).
MAX_TASK_ATTEMPTS = 4

#: Fraction of a job's maps that must finish before reduces are launched.
#: Launching reduces late keeps the healthy copy phase short (the map
#: output is already there), so a node stuck re-copying stands out.
REDUCE_SLOWSTART_FRACTION = 0.8

#: Maximum concurrent shuffle fetch streams per reduce (parallel copies).
MAX_PARALLEL_FETCHES = 5

#: Per-stream shuffle fetch ceiling, bytes/second.  Keeps one reduce from
#: demanding its whole remaining segment in a single tick, which would
#: distort the proportional-share arbitration for co-located tasks.
SHUFFLE_FETCH_BYTES_PER_S = 8.0 * MB

#: Seconds between progress log lines for a running attempt.
PROGRESS_LOG_INTERVAL_S = 5.0

#: Heartbeat interval from tasktracker to jobtracker, seconds.
HEARTBEAT_INTERVAL_S = 3.0

#: Approximate heartbeat payload, bytes.
HEARTBEAT_BYTES = 1500.0


class BugKind(enum.Enum):
    """The three application bugs from the paper's Table 2."""

    MAP_HANG_1036 = "HADOOP-1036"
    SHUFFLE_FAIL_1152 = "HADOOP-1152"
    REDUCE_HANG_2080 = "HADOOP-2080"


#: Signature: ``bug_for(node_name, now) -> Optional[BugKind]``.
BugLookup = Callable[[str, float], Optional[BugKind]]


class TaskStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class ReducePhase(enum.Enum):
    COPY = "copy"
    SORT = "sort"
    REDUCE = "reduce"


@dataclass
class MapOutput:
    """Where a completed map's intermediate output lives."""

    node: str
    total_bytes: float


@dataclass
class TaskState:
    """JobTracker-side record of one logical task."""

    kind: TaskKind
    index: int
    status: TaskStatus = TaskStatus.PENDING
    attempts_made: int = 0
    block: Optional[Block] = None  # map input block
    finished_on: Optional[str] = None
    finish_time: Optional[float] = None
    #: Nodes where an attempt of this task already failed.  Hadoop's
    #: JobTracker avoids re-dispatching a task to such a node, which is
    #: what lets jobs survive a single sick slave: the re-execution lands
    #: elsewhere and succeeds.
    failed_on: Set[str] = field(default_factory=set)


class JobStatus(enum.Enum):
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass
class JobState:
    """JobTracker-side record of one submitted job."""

    spec: JobSpec
    maps: List[TaskState] = field(default_factory=list)
    reduces: List[TaskState] = field(default_factory=list)
    map_outputs: Dict[int, MapOutput] = field(default_factory=dict)
    pending_maps: Deque[int] = field(default_factory=deque)
    pending_reduces: Deque[int] = field(default_factory=deque)
    status: JobStatus = JobStatus.RUNNING
    submit_time: float = 0.0
    finish_time: Optional[float] = None
    output_blocks: List[Block] = field(default_factory=list)
    #: Tasks ``SUCCEEDED`` (a success is final): kept by ``_complete``.
    maps_done: int = 0
    reduces_done: int = 0

    def reduces_eligible(self) -> bool:
        threshold = max(1, int(REDUCE_SLOWSTART_FRACTION * len(self.maps)))
        return self.maps_done >= threshold


# ---------------------------------------------------------------------------
# Task attempts
# ---------------------------------------------------------------------------


class TaskAttempt:
    """Base class for a running attempt on a tasktracker."""

    def __init__(
        self,
        tracker: "TaskTracker",
        job: JobState,
        task: TaskState,
        attempt_no: int,
        pid: int,
        now: float,
    ) -> None:
        self.tracker = tracker
        self.node = tracker.node_name
        self.job = job
        self.cost = job.spec.cost
        self.task = task
        self.attempt_no = attempt_no
        self.pid = pid
        self.attempt_id = task_id(job.spec.job_id, task.kind, task.index, attempt_no)
        self.start_time = now
        self.last_progress_time = now
        self.last_log_time = now - PROGRESS_LOG_INTERVAL_S  # log soon after launch
        self.finished = False
        self.failed = False

    def progress(self) -> float:
        raise NotImplementedError

    def demand(self, ctx: TickContext, now: float) -> None:
        raise NotImplementedError

    def advance(self, now: float, dt: float) -> None:
        raise NotImplementedError

    def _note_progress(self, now: float) -> None:
        self.last_progress_time = now

    def _maybe_log_progress(self, now: float, detail: Callable[[], str]) -> None:
        """Log a progress line if one is due; ``detail()`` runs only then."""
        if now - self.last_log_time >= PROGRESS_LOG_INTERVAL_S:
            self.last_log_time = now
            # Hadoop logs progress as a 0-1 fraction with a percent sign
            # (see the paper's Figure 5 neighbourhood: "0.31% reduce > copy").
            self.tracker.log.append(
                now,
                "INFO",
                TASKTRACKER_CLASS,
                f"{self.attempt_id} {self.progress() / 100.0:.2f}% {detail()}",
            )


class MapAttempt(TaskAttempt):
    """One map attempt: stream the input block through the map function.

    Consumption each tick is the minimum of what the disk/network
    delivered and what the granted CPU could process; the shortfall when
    I/O-bound is booked as iowait on the node.  Output is written to
    local disk as it is produced (the tasktracker-local map output file).
    """

    def __init__(self, *args, src_node: str, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.src_node = src_node
        self.input_bytes = self.job.spec.map_input_bytes(self.task.index)
        self.bytes_done = 0.0
        self.hung = False
        self._cpu = None
        self._io = None
        self._transfer = None
        self._out = None

    def progress(self) -> float:
        return 100.0 * self.bytes_done / max(1.0, self.input_bytes)

    def demand(self, ctx: TickContext, now: float) -> None:
        bug = self.tracker.bug_for(self.node, now)
        if bug is BugKind.MAP_HANG_1036:
            self.hung = True
        if self.hung:
            # Infinite loop: burns a full core, touches no data.
            self._cpu = ctx.demand_cpu(self.node, self.pid, self.cost.task_cpu_cores)
            self._io = None
            self._transfer = None
            self._out = None
            return
        throughput = self.cost.map_mb_per_cpu_s * MB
        want_bytes = min(
            self.input_bytes - self.bytes_done,
            self.cost.task_cpu_cores * ctx.dt * throughput,
        )
        self._cpu = ctx.demand_cpu(self.node, self.pid, self.cost.task_cpu_cores)
        out_bytes = want_bytes * self.cost.map_output_ratio
        if self.src_node == self.node:
            self._io = ctx.demand_disk(
                self.node, self.pid, read_bytes=want_bytes, write_bytes=out_bytes
            )
            self._transfer = None
        else:
            # Remote block read: disk read on the serving datanode, then
            # the bytes cross the network.
            src_pid = self.tracker.datanode_pid(self.src_node)
            ctx.demand_disk(self.src_node, src_pid, read_bytes=want_bytes)
            self._transfer = ctx.demand_transfer(self.src_node, self.node, want_bytes)
            self._io = ctx.demand_disk(self.node, self.pid, write_bytes=out_bytes)

    def advance(self, now: float, dt: float) -> None:
        if self.finished or self.failed:
            return
        if self.hung:
            # Infinite loop: burns CPU but never reports progress or logs.
            if self._cpu is not None:
                self._cpu.book_all()
            return
        throughput = self.cost.map_mb_per_cpu_s * MB
        cpu_capacity_bytes = self._cpu.granted * throughput
        if self._transfer is not None:
            io_bytes = self._transfer.granted_bytes
        else:
            io_bytes = self._io.read_granted
        consumed = min(cpu_capacity_bytes, io_bytes, self.input_bytes - self.bytes_done)
        cpu_used = consumed / throughput
        self._cpu.book(cpu_used, iowait=max(0.0, self._cpu.granted - cpu_used))
        if consumed > 0:
            self.bytes_done += consumed
            self._note_progress(now)
        self._maybe_log_progress(
            now, lambda: f"hdfs://master:9000/gridmix/{self.job.spec.name}:"
            f"{self.task.index * 67108864}+67108864"
        )
        if self.bytes_done >= self.input_bytes - 1e-6:
            self.finished = True


class ReduceAttempt(TaskAttempt):
    """One reduce attempt: copy (shuffle), sort, then reduce.

    The copy phase can only fetch output of maps that have completed, so
    a reduce launched early mostly waits -- which is what delays the
    manifestation of the two reduce-phase bugs in the paper's Figure 7.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.phase = ReducePhase.COPY
        #: Map index -> bytes left (> 1e-6), in discovery order.
        self.remaining_by_src: Dict[int, float] = {}
        self.outputs_known = 0  # how many map outputs it has seen
        self.fetched_bytes = 0.0
        self.expected_shuffle_bytes: Optional[float] = None
        self.sort_done_bytes = 0.0
        self.reduce_done_bytes = 0.0
        self.hung = False
        self.output_block: Optional[Block] = None
        self._cpu = None
        self._disk = None
        self._fetch_transfers: List = []
        self._fetch_sources: List[int] = []
        self._replica_transfers: List = []

    # -- progress bookkeeping ---------------------------------------------------

    def _discover_outputs(self) -> None:
        """Learn about newly completed maps (piece = 1/num_reduces each)."""
        outputs = self.job.map_outputs
        if len(outputs) == self.outputs_known:
            return
        # A map reports its output once, so the new ones are the last.
        num_reduces = max(1, self.job.spec.num_reduces)
        for index, output in itertools.islice(outputs.items(), self.outputs_known, None):
            piece = output.total_bytes / num_reduces
            if piece > 1e-6:
                self.remaining_by_src[index] = piece
        self.outputs_known = len(outputs)

    def _shuffle_total(self) -> float:
        if self.expected_shuffle_bytes is None:
            num_reduces = max(1, self.job.spec.num_reduces)
            total_map_out = sum(
                self.job.spec.map_input_bytes(i) * self.cost.map_output_ratio
                for i in range(len(self.job.maps))
            )
            self.expected_shuffle_bytes = total_map_out / num_reduces
        return max(1.0, self.expected_shuffle_bytes)

    def progress(self) -> float:
        total = self._shuffle_total()
        copy_frac = min(1.0, self.fetched_bytes / total)
        sort_frac = min(1.0, self.sort_done_bytes / total)
        reduce_frac = min(1.0, self.reduce_done_bytes / total)
        return 100.0 * (copy_frac + sort_frac + reduce_frac) / 3.0

    def _copy_complete(self) -> bool:
        return (
            self.job.maps_done == len(self.job.maps)
            and self.outputs_known == len(self.job.maps)
            and not self.remaining_by_src
        )

    # -- demand / advance ----------------------------------------------------------

    def demand(self, ctx: TickContext, now: float) -> None:
        self._cpu = None
        self._disk = None
        self._fetch_transfers = []
        self._fetch_sources = []
        self._replica_transfers = []
        if self.hung:
            return  # wedged: no demands at all (paper: decreased activity)

        if self.phase is ReducePhase.COPY:
            self._discover_outputs()
            sources = sorted(self.remaining_by_src.items(), key=lambda s: -s[1])
            write_total = 0.0
            fetch_cap = SHUFFLE_FETCH_BYTES_PER_S * ctx.dt
            for idx, remaining in sources[:MAX_PARALLEL_FETCHES]:
                remaining = min(remaining, fetch_cap)
                output = self.job.map_outputs[idx]
                src_pid = self.tracker.tasktracker_pid(output.node)
                ctx.demand_disk(output.node, src_pid, read_bytes=remaining)
                transfer = ctx.demand_transfer(output.node, self.node, remaining)
                self._fetch_transfers.append(transfer)
                self._fetch_sources.append(idx)
                write_total += remaining
            if write_total > 0:
                self._disk = ctx.demand_disk(
                    self.node, self.pid, write_bytes=write_total
                )
            # Merging fetched segments costs a little CPU.
            self._cpu = ctx.demand_cpu(self.node, self.pid, 0.2)
        elif self.phase is ReducePhase.SORT:
            total = self._shuffle_total()
            remaining = total - self.sort_done_bytes
            throughput = self.cost.sort_mb_per_cpu_s * MB
            want = min(remaining, self.cost.task_cpu_cores * ctx.dt * throughput)
            self._cpu = ctx.demand_cpu(self.node, self.pid, self.cost.task_cpu_cores)
            self._disk = ctx.demand_disk(
                self.node, self.pid, read_bytes=want, write_bytes=want
            )
        else:  # REDUCE phase
            total = self._shuffle_total()
            remaining = total - self.reduce_done_bytes
            throughput = self.cost.reduce_mb_per_cpu_s * MB
            want = min(remaining, self.cost.task_cpu_cores * ctx.dt * throughput)
            out_bytes = want * self.cost.reduce_output_ratio
            self._cpu = ctx.demand_cpu(self.node, self.pid, self.cost.task_cpu_cores)
            self._disk = ctx.demand_disk(
                self.node, self.pid, read_bytes=want, write_bytes=out_bytes
            )
            # Replication pipeline: local replica writes locally (above);
            # downstream replicas receive over the network and write too.
            if self.output_block is not None:
                chain = [n for n in self.output_block.replicas if n != self.node]
                upstream = self.node
                for replica in chain:
                    transfer = ctx.demand_transfer(upstream, replica, out_bytes)
                    self._replica_transfers.append((replica, transfer))
                    dn_pid = self.tracker.datanode_pid(replica)
                    ctx.demand_disk(replica, dn_pid, write_bytes=out_bytes)
                    upstream = replica

    def advance(self, now: float, dt: float) -> None:
        if self.finished or self.failed or self.hung:
            if self._cpu is not None:
                self._cpu.book(0.0)
            return

        if self.phase is ReducePhase.COPY:
            got = 0.0
            remaining_by_src = self.remaining_by_src
            for idx, transfer in zip(self._fetch_sources, self._fetch_transfers):
                fetched = min(transfer.granted_bytes, remaining_by_src[idx])
                left = remaining_by_src[idx] - fetched
                if left > 1e-6:
                    remaining_by_src[idx] = left
                else:
                    del remaining_by_src[idx]
                got += fetched
            if got > 0:
                self.fetched_bytes += got
                self._note_progress(now)
            if self._cpu is not None:
                self._cpu.book(min(self._cpu.granted, 0.05 * got / MB))
            self._maybe_log_progress(now, lambda: (
                f"reduce > copy ({self.outputs_known - len(self.remaining_by_src)}"
                f" of {len(self.job.maps)} at {got / MB / dt:.2f} MB/s) >"
            ))
            if self._copy_complete():
                bug = self.tracker.bug_for(self.node, now)
                if bug is BugKind.REDUCE_HANG_2080:
                    # Checksum mismatch wedges the attempt right as the
                    # copy phase hands off to the sort.
                    self.hung = True
                    return
                if bug is BugKind.SHUFFLE_FAIL_1152:
                    # The copy thread throws renaming the *last* map
                    # output segment: the whole copy phase's work is lost
                    # and the re-executed attempt re-copies from scratch.
                    # This is why the paper saw the fault stay "dormant
                    # for several minutes" before manifesting.
                    self.failed = True
                    return
                self.phase = ReducePhase.SORT
                self._note_progress(now)
        elif self.phase is ReducePhase.SORT:
            throughput = self.cost.sort_mb_per_cpu_s * MB
            cpu_bytes = self._cpu.granted * throughput
            io_bytes = min(self._disk.read_granted, self._disk.write_granted)
            total = self._shuffle_total()
            consumed = min(cpu_bytes, io_bytes, total - self.sort_done_bytes)
            cpu_used = consumed / throughput
            self._cpu.book(cpu_used, iowait=max(0.0, self._cpu.granted - cpu_used))
            if consumed > 0:
                self.sort_done_bytes += consumed
                self._note_progress(now)
            self._maybe_log_progress(now, lambda: "reduce > sort")
            if self.sort_done_bytes >= total - 1e-6:
                self.phase = ReducePhase.REDUCE
                self.output_block = self.tracker.allocate_output_block(
                    self, total * self.cost.reduce_output_ratio, now
                )
                self._note_progress(now)
        else:  # REDUCE
            throughput = self.cost.reduce_mb_per_cpu_s * MB
            cpu_bytes = self._cpu.granted * throughput
            io_bytes = self._disk.read_granted
            pipeline_bytes = [t.granted_bytes for _, t in self._replica_transfers]
            if pipeline_bytes:
                # The slowest replica in the pipeline throttles the write.
                io_bytes = min(
                    io_bytes,
                    min(pipeline_bytes) / max(1e-9, self.cost.reduce_output_ratio),
                )
            total = self._shuffle_total()
            consumed = min(cpu_bytes, io_bytes, total - self.reduce_done_bytes)
            cpu_used = consumed / throughput
            self._cpu.book(cpu_used, iowait=max(0.0, self._cpu.granted - cpu_used))
            if consumed > 0:
                self.reduce_done_bytes += consumed
                self._note_progress(now)
            self._maybe_log_progress(now, lambda: "reduce > reduce")
            if self.reduce_done_bytes >= total - 1e-6:
                self.finished = True


# ---------------------------------------------------------------------------
# TaskTracker
# ---------------------------------------------------------------------------


class TaskTracker:
    """The per-slave daemon: slots, attempt lifecycle, log emission."""

    def __init__(
        self,
        node_name: str,
        sim_node: SimNode,
        log: DaemonLog,
        jobtracker: "JobTracker",
        namenode: NameNode,
        datanodes: Dict[str, DataNode],
        bug_for: BugLookup,
        map_slots: int = 2,
        reduce_slots: int = 2,
        pid_base: int = 1000,
    ) -> None:
        self.node_name = node_name
        self.sim_node = sim_node
        self.log = log
        self.jobtracker = jobtracker
        self.namenode = namenode
        self.datanodes = datanodes
        self.bug_for = bug_for
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.running: List[TaskAttempt] = []
        self._maps_running = 0  # how many of ``running`` are maps
        self._pids = itertools.count(pid_base)
        self._last_heartbeat = -HEARTBEAT_INTERVAL_S
        self.pid = pid_base - 2  # the tasktracker daemon's own pid
        sim_node.ensure_process(
            self.pid, "TaskTracker", rss_kb=180e3, threads=30.0, fds=120.0
        )

    # -- helpers used by attempts ----------------------------------------------

    def datanode_pid(self, node: str) -> int:
        """Pid the DataNode daemon on ``node`` runs under (TT pid + 1)."""
        if node in self.jobtracker.trackers:
            return self.jobtracker.trackers[node].pid + 1
        return 99

    def tasktracker_pid(self, node: str) -> int:
        return self.jobtracker.trackers[node].pid if node in self.jobtracker.trackers else 98

    def allocate_output_block(
        self, attempt: ReduceAttempt, size: float, now: float
    ) -> Block:
        block = self.namenode.allocate(max(1.0, size), preferred=self.node_name)
        attempt.job.output_blocks.append(block)
        upstream_ip = self._ip(self.node_name)
        for replica in block.replicas:
            datanode = self.datanodes[replica]
            datanode.log_receive_start(block, upstream_ip, now)
            upstream_ip = self._ip(replica)
        return block

    @staticmethod
    def _ip(node: str) -> str:
        # Stable fake address derived from the node name's trailing digits.
        digits = "".join(c for c in node if c.isdigit()) or "0"
        return f"10.0.0.{int(digits) % 250 + 1}"

    # -- slot accounting ----------------------------------------------------------

    def free_map_slots(self) -> int:
        return self.map_slots - self._maps_running

    def free_reduce_slots(self) -> int:
        return self.reduce_slots - (len(self.running) - self._maps_running)

    # -- lifecycle -----------------------------------------------------------------

    def heartbeat_due(self, now: float) -> bool:
        """Whether this tick is a heartbeat tick for this tracker."""
        return now - self._last_heartbeat >= HEARTBEAT_INTERVAL_S

    def heartbeat_pull(self, now: float) -> None:
        """The heartbeat's payload: note it and pull task assignments.

        The caller declares the two ``HEARTBEAT_BYTES`` transfers
        (tracker -> master and back) for every tracker that is due.
        """
        self._last_heartbeat = now
        for _ in range(self.free_map_slots()):
            launch = self.jobtracker.assign_map(self.node_name, now)
            if launch is None:
                break
            self._launch(launch[0], launch[1], now)
        for _ in range(self.free_reduce_slots()):
            launch = self.jobtracker.assign_reduce(self.node_name, now)
            if launch is None:
                break
            self._launch(launch[0], launch[1], now)

    def _launch(self, job: JobState, task: TaskState, now: float) -> None:
        attempt_no = task.attempts_made
        task.attempts_made += 1
        task.status = TaskStatus.RUNNING
        pid = next(self._pids)
        if task.kind is TaskKind.MAP:
            block = task.block
            src = self.namenode.choose_read_replica(block, self.node_name)
            attempt: TaskAttempt = MapAttempt(
                self, job, task, attempt_no, pid, now, src_node=src
            )
            serving = self.datanodes[src]
            serving.log_serve(block, self._ip(self.node_name), now)
            self._maps_running += 1
        else:
            attempt = ReduceAttempt(self, job, task, attempt_no, pid, now)
        self.running.append(attempt)
        self.sim_node.account_forks(1.0)
        self.sim_node.ensure_process(
            pid,
            f"java({attempt.attempt_id})",
            rss_kb=job.spec.cost.task_rss_kb,
            threads=12.0,
            fds=60.0,
        )
        self.log.append(
            now, "INFO", TASKTRACKER_CLASS, f"LaunchTaskAction: {attempt.attempt_id}"
        )

    #: Idle CPU overhead of the TaskTracker daemon, cores.
    DAEMON_CORES = 0.02

    def demand_tasks(self, ctx: TickContext, now: float) -> None:
        """First pass: declare demand for the running attempts (the
        cluster declares the daemon's ``DAEMON_CORES`` fleet-wide)."""
        for attempt in self.running:
            attempt.demand(ctx, now)

    def advance(self, now: float, dt: float) -> None:
        """Second pass: consume grants, finish/fail/kill attempts."""
        still_running: List[TaskAttempt] = []
        for attempt in self.running:
            attempt.advance(now, dt)
            if attempt.finished:
                self._complete(attempt, now)
            elif attempt.failed:
                self._fail(attempt, now)
            elif now - attempt.last_progress_time > TASK_TIMEOUT_S:
                self._kill_timed_out(attempt, now)
            else:
                still_running.append(attempt)
        if len(still_running) < len(self.running):
            self._maps_running = sum(
                1 for a in still_running if a.task.kind is TaskKind.MAP
            )
        self.running = still_running

    def _complete(self, attempt: TaskAttempt, now: float) -> None:
        if attempt.task.kind is TaskKind.MAP:
            attempt.job.maps_done += 1
        else:
            attempt.job.reduces_done += 1
        attempt.task.status = TaskStatus.SUCCEEDED
        attempt.task.finished_on = self.node_name
        attempt.task.finish_time = now
        self.log.append(
            now, "INFO", TASKTRACKER_CLASS, f"Task {attempt.attempt_id} is done."
        )
        self.sim_node.remove_process(attempt.pid)
        if attempt.task.kind is TaskKind.MAP:
            output_bytes = (
                attempt.job.spec.map_input_bytes(attempt.task.index)
                * attempt.cost.map_output_ratio
            )
            self.jobtracker.report_map_done(
                attempt.job, attempt.task, self.node_name, output_bytes
            )
        else:
            if isinstance(attempt, ReduceAttempt) and attempt.output_block is not None:
                block = attempt.output_block
                upstream_ip = self._ip(self.node_name)
                for replica in block.replicas:
                    self.datanodes[replica].log_receive_end(block, upstream_ip, now)
                    upstream_ip = self._ip(replica)
            self.jobtracker.report_reduce_done(attempt.job, attempt.task, now)

    def _fail(self, attempt: TaskAttempt, now: float) -> None:
        self.log.append(
            now,
            "WARN",
            TASKTRACKER_CLASS,
            f"Error from {attempt.attempt_id}: java.io.IOException: "
            "Failed to rename map output; task failed",
        )
        self.log.append(
            now,
            "INFO",
            TASKTRACKER_CLASS,
            f"Removing task '{attempt.attempt_id}' from running tasks",
        )
        self.sim_node.remove_process(attempt.pid)
        self.jobtracker.report_failure(
            attempt.job, attempt.task, now, node=self.node_name
        )

    def _kill_timed_out(self, attempt: TaskAttempt, now: float) -> None:
        self.log.append(
            now,
            "INFO",
            TASKTRACKER_CLASS,
            f"{attempt.attempt_id}: Task failed to report status for "
            f"{int(TASK_TIMEOUT_S)} seconds. Killing.",
        )
        self.log.append(
            now,
            "INFO",
            TASKTRACKER_CLASS,
            f"Removing task '{attempt.attempt_id}' from running tasks",
        )
        self.sim_node.remove_process(attempt.pid)
        self.jobtracker.report_failure(
            attempt.job, attempt.task, now, node=self.node_name
        )


# ---------------------------------------------------------------------------
# JobTracker
# ---------------------------------------------------------------------------


class JobTracker:
    """The master's scheduler: FIFO jobs, locality-aware map placement."""

    def __init__(self, master_node: str, namenode: NameNode) -> None:
        self.master_node = master_node
        self.namenode = namenode
        self.trackers: Dict[str, TaskTracker] = {}
        self.jobs: Dict[str, JobState] = {}
        self.job_order: List[str] = []
        self._running_jobs: List[JobState] = []  # in submission order
        self.completed_jobs: List[JobState] = []
        #: Trackers excluded from scheduling (operator/mitigation action).
        self.blacklisted: Set[str] = set()

    def blacklist(self, node: str) -> None:
        """Stop assigning tasks to ``node`` (Hadoop's sick-tracker remedy).

        Running attempts are left to finish or time out on their own;
        only *new* assignments route around the node.
        """
        self.blacklisted.add(node)

    def register_tracker(self, tracker: TaskTracker) -> None:
        self.trackers[tracker.node_name] = tracker

    # -- submission ---------------------------------------------------------------

    def submit(self, spec: JobSpec, now: float) -> JobState:
        sizes = [spec.map_input_bytes(i) for i in range(spec.num_maps)]
        blocks = self.namenode.materialize_input(sizes)
        job = JobState(spec=spec, submit_time=now)
        for index, block in enumerate(blocks):
            job.maps.append(TaskState(kind=TaskKind.MAP, index=index, block=block))
            job.pending_maps.append(index)
        for index in range(spec.num_reduces):
            job.reduces.append(TaskState(kind=TaskKind.REDUCE, index=index))
            job.pending_reduces.append(index)
        self.jobs[spec.job_id] = job
        self.job_order.append(spec.job_id)
        self._running_jobs.append(job)
        return job

    def _active_jobs(self) -> List[JobState]:
        return self._running_jobs

    # -- assignment ----------------------------------------------------------------

    def assign_map(self, node: str, now: float):
        if node in self.blacklisted:
            return None
        for job in self._active_jobs():
            # Locality first: the first pending map, not failed on this
            # node, whose block has a local replica; else the first one.
            chosen: Optional[int] = None
            for index in job.pending_maps:
                task = job.maps[index]
                if node in task.failed_on:
                    continue
                if chosen is None:
                    chosen = index
                if task.block is not None and node in task.block.replicas:
                    chosen = index
                    break
            if chosen is None:
                continue
            job.pending_maps.remove(chosen)
            return job, job.maps[chosen]
        return None

    def assign_reduce(self, node: str, now: float):
        if node in self.blacklisted:
            return None
        for job in self._active_jobs():
            if not job.reduces_eligible():
                continue
            index = next(
                (i for i in job.pending_reduces
                 if node not in job.reduces[i].failed_on),
                None,
            )
            if index is None:
                continue
            job.pending_reduces.remove(index)
            return job, job.reduces[index]
        return None

    # -- completion reporting ---------------------------------------------------------

    def report_map_done(
        self, job: JobState, task: TaskState, node: str, output_bytes: float
    ) -> None:
        job.map_outputs[task.index] = MapOutput(node=node, total_bytes=output_bytes)

    def report_reduce_done(self, job: JobState, task: TaskState, now: float) -> None:
        if (
            job.status is JobStatus.RUNNING
            and job.maps_done == len(job.maps)
            and job.reduces_done == len(job.reduces)
        ):
            self._finish_job(job, JobStatus.SUCCEEDED, now)

    def report_failure(
        self, job: JobState, task: TaskState, now: float, node: Optional[str] = None
    ) -> None:
        if node is not None:
            task.failed_on.add(node)
        if task.attempts_made >= MAX_TASK_ATTEMPTS:
            task.status = TaskStatus.FAILED
            if job.status is JobStatus.RUNNING:
                self._finish_job(job, JobStatus.FAILED, now)
            return
        task.status = TaskStatus.PENDING
        if task.kind is TaskKind.MAP:
            job.pending_maps.append(task.index)
        else:
            job.pending_reduces.append(task.index)

    def _finish_job(self, job: JobState, status: JobStatus, now: float) -> None:
        job.status = status
        job.finish_time = now
        self._running_jobs = [j for j in self._running_jobs if j is not job]
        self.completed_jobs.append(job)
        # GridMix cleanup: drop the generated input and the job output,
        # producing the DeleteBlock activity the datanode logs record.
        for task in job.maps:
            if task.block is not None:
                self.namenode.delete_block(task.block, now)
        for block in job.output_blocks:
            self.namenode.delete_block(block, now)
