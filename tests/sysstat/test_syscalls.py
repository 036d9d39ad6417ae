"""Tests for the syscall tracing substrate."""

import numpy as np
import pytest

from repro.sysstat import SYSCALL_CATEGORIES, SYSCALL_INDEX, SyscallTracer

from .sadc_oracle import SimProcFS


@pytest.fixture
def procfs() -> SimProcFS:
    fs = SimProcFS()
    fs.process(100, "java")
    return fs


class TestTracer:
    def test_priming_returns_none(self, procfs):
        assert SyscallTracer(procfs).trace(0.0) is None
        assert SyscallTracer(procfs).trace_total(0.0) is None

    def test_category_catalog(self):
        assert len(SYSCALL_CATEGORIES) == 10
        assert SYSCALL_INDEX["read"] == 0

    def test_io_activity_becomes_read_write_calls(self, procfs):
        tracer = SyscallTracer(procfs, seed=1)
        tracer.trace(0.0)
        proc = procfs.processes[100]
        proc.read_kb += 640.0   # 10 x 64 KiB requests
        proc.write_kb += 320.0
        counts = tracer.trace(1.0)[100]
        assert counts[SYSCALL_INDEX["read"]] >= 9.0
        assert counts[SYSCALL_INDEX["write"]] >= 4.0

    def test_cpu_spin_has_low_io_syscall_share(self, procfs):
        """An infinite loop (HADOOP-1036 shape) barely syscalls at all --
        the distribution shifts away from read/write."""
        tracer = SyscallTracer(procfs, seed=1)
        tracer.trace(0.0)
        proc = procfs.processes[100]
        proc.utime += 1.0  # pure CPU, no I/O, no switches
        counts = tracer.trace(1.0)[100]
        io = counts[SYSCALL_INDEX["read"]] + counts[SYSCALL_INDEX["write"]]
        assert io < counts.sum() * 0.3

    def test_context_switches_become_futex_waits(self, procfs):
        tracer = SyscallTracer(procfs, seed=1)
        tracer.trace(0.0)
        procfs.processes[100].cswch += 100.0
        counts = tracer.trace(1.0)[100]
        assert counts[SYSCALL_INDEX["futex"]] >= 70.0

    def test_new_process_skipped_until_second_sample(self, procfs):
        tracer = SyscallTracer(procfs, seed=1)
        tracer.trace(0.0)
        procfs.process(200, "late")
        assert 200 not in tracer.trace(1.0)
        assert 200 in tracer.trace(2.0)

    def test_total_sums_processes(self, procfs):
        procfs.process(200, "other")
        tracer = SyscallTracer(procfs, seed=1)
        tracer.trace(0.0)
        procfs.processes[100].read_kb += 64.0
        procfs.processes[200].read_kb += 64.0
        total = tracer.trace_total(1.0)
        assert total[SYSCALL_INDEX["read"]] >= 2.0

    def test_deterministic_given_seed(self):
        def run():
            fs = SimProcFS()
            fs.process(1, "p")
            tracer = SyscallTracer(fs, seed=9)
            tracer.trace(0.0)
            fs.processes[1].utime += 0.5
            fs.processes[1].read_kb += 128.0
            return tracer.trace(1.0)[1]

        assert np.array_equal(run(), run())

    def test_zero_elapsed_returns_none(self, procfs):
        tracer = SyscallTracer(procfs)
        tracer.trace(1.0)
        assert tracer.trace(1.0) is None
