"""Syscall tracing substrate for the ``strace`` module (paper section 5).

"We are currently developing new ASDF modules, including a strace module
that tracks all of the system calls made by a given process.  We
envision using this module to detect and diagnose anomalies by building
a probabilistic model of the order and timing of system calls and
checking for patterns that correspond to problems."

A real deployment would attach ``strace``/ptrace to the traced pid; here
:class:`SyscallTracer` synthesizes per-second syscall *category counts*
for each traced process from the same ``/proc`` counters the rest of the
substrate maintains.  The mapping is the kernel-mechanical one -- disk
reads become ``read``/``pread`` calls sized by the typical request, CPU
work emits page-fault-driven ``mmap``/``brk`` and scheduling calls,
network activity becomes ``sendto``/``recvfrom``, forks become
``clone``+``execve`` -- so a process whose behaviour changes (an
infinite loop stops issuing I/O syscalls; a disk hog floods ``write``)
changes its syscall *distribution*, which is exactly the signal the
anomaly model consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from .procfs import ProcessStat

if TYPE_CHECKING:
    from ..sim.node import ProcFS

#: The syscall categories the tracer reports, in canonical order.
SYSCALL_CATEGORIES: Tuple[str, ...] = (
    "read",
    "write",
    "sendto",
    "recvfrom",
    "futex",
    "epoll_wait",
    "clone",
    "mmap",
    "stat",
    "sched_yield",
)

SYSCALL_INDEX = {name: i for i, name in enumerate(SYSCALL_CATEGORIES)}

#: Bytes moved per read/write syscall (buffered I/O request size).
_IO_BYTES_PER_CALL = 64.0 * 1024.0


class SyscallTracer:
    """Synthesizes per-second syscall counts for one node's processes.

    Stateful like ``sadc``: each :meth:`trace` call
    differences the previous ``/proc`` snapshot into activity deltas and
    maps them onto syscall category counts.  Deterministic given the
    seed.
    """

    def __init__(self, procfs: "ProcFS", seed: int = 0) -> None:
        self._procfs = procfs
        self._rng = np.random.default_rng(seed)
        self._prev: Optional[Dict[int, ProcessStat]] = None
        self._prev_time = 0.0

    def trace(self, now: float) -> Optional[Dict[int, np.ndarray]]:
        """Per-pid syscall count vectors since the last call.

        ``None`` on the priming call, like the real tracer attaching.
        """
        current = {
            pid: ProcessStat(
                pid=pid,
                name=proc.name,
                utime=proc.utime,
                stime=proc.stime,
                read_kb=proc.read_kb,
                write_kb=proc.write_kb,
                cswch=proc.cswch,
                nvcswch=proc.nvcswch,
                minflt=proc.minflt,
            )
            for pid, proc in self._procfs.processes.items()
        }
        previous, prev_time = self._prev, self._prev_time
        self._prev, self._prev_time = current, now
        if previous is None:
            return None
        elapsed = now - prev_time
        if elapsed <= 0:
            return None

        result: Dict[int, np.ndarray] = {}
        for pid, proc in current.items():
            prev_proc = previous.get(pid)
            if prev_proc is None:
                continue
            cpu = max(0.0, (proc.utime + proc.stime) - (prev_proc.utime + prev_proc.stime))
            read_bytes = max(0.0, proc.read_kb - prev_proc.read_kb) * 1024.0
            write_bytes = max(0.0, proc.write_kb - prev_proc.write_kb) * 1024.0
            cswch = max(0.0, proc.cswch - prev_proc.cswch)
            nvcswch = max(0.0, proc.nvcswch - prev_proc.nvcswch)
            faults = max(0.0, proc.minflt - prev_proc.minflt)

            counts = np.zeros(len(SYSCALL_CATEGORIES))
            counts[SYSCALL_INDEX["read"]] = read_bytes / _IO_BYTES_PER_CALL
            counts[SYSCALL_INDEX["write"]] = write_bytes / _IO_BYTES_PER_CALL
            # Shuffle/HDFS traffic rides the same buffers: approximate the
            # socket half of the I/O as a fraction of the byte flow.
            counts[SYSCALL_INDEX["sendto"]] = 0.3 * counts[SYSCALL_INDEX["write"]]
            counts[SYSCALL_INDEX["recvfrom"]] = 0.3 * counts[SYSCALL_INDEX["read"]]
            # Voluntary switches come from lock/condvar waits; involuntary
            # preemption shows up as yields.
            counts[SYSCALL_INDEX["futex"]] = 0.8 * cswch
            counts[SYSCALL_INDEX["epoll_wait"]] = 0.2 * cswch + 2.0 * elapsed
            counts[SYSCALL_INDEX["sched_yield"]] = nvcswch
            counts[SYSCALL_INDEX["mmap"]] = faults / 16.0
            counts[SYSCALL_INDEX["stat"]] = (
                1.0 * elapsed + 0.05 * (counts[0] + counts[1])
            )
            counts[SYSCALL_INDEX["clone"]] = 0.0  # forks attributed node-wide
            # Small deterministic jitter so distributions are not exact.
            counts += self._rng.poisson(0.2, size=counts.shape)
            result[pid] = counts
        return result

    def trace_total(self, now: float) -> Optional[np.ndarray]:
        """Node-wide syscall counts: the sum over all traced processes."""
        per_pid = self.trace(now)
        if per_pid is None:
            return None
        if not per_pid:
            return np.zeros(len(SYSCALL_CATEGORIES))
        return np.sum(list(per_pid.values()), axis=0)
