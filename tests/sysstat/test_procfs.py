"""Tests for the simulated /proc state."""

from .sadc_oracle import SimProcFS, snapshot


class TestSimProcFS:
    def test_default_has_eth0(self):
        fs = SimProcFS()
        assert "eth0" in fs.nics

    def test_snapshot_is_deep_copy(self):
        fs = SimProcFS()
        snap = snapshot(fs)
        fs.cpu.user += 10.0
        fs.nic("eth0").rx_bytes += 1000.0
        fs.process(1, "init").utime += 1.0
        assert snap.cpu.user == 0.0
        assert snap.nic("eth0").rx_bytes == 0.0
        assert 1 not in snap.processes

    def test_nic_creates_on_demand(self):
        fs = SimProcFS()
        nic = fs.nic("eth1")
        assert fs.nics["eth1"] is nic

    def test_process_creates_and_reuses(self):
        fs = SimProcFS()
        proc = fs.process(42, "java")
        assert fs.process(42) is proc
        assert proc.name == "java"

    def test_cpu_total_sums_all_modes(self):
        fs = SimProcFS()
        fs.cpu.user = 1.0
        fs.cpu.system = 2.0
        fs.cpu.idle = 3.0
        fs.cpu.iowait = 0.5
        assert fs.cpu.total() == 6.5

    def test_mem_used_derives_from_free(self):
        fs = SimProcFS()
        fs.mem.total_kb = 1000.0
        fs.mem.free_kb = 400.0
        assert fs.mem.used_kb == 600.0

    def test_mem_used_never_negative(self):
        fs = SimProcFS()
        fs.mem.total_kb = 100.0
        fs.mem.free_kb = 200.0
        assert fs.mem.used_kb == 0.0
