"""Tests for SimNode's per-tick accounting into /proc counters."""

import pytest

from repro.sim import DISK_IO_BYTES, NodeSpec

from .fleet import OneFleet


def make_node(**spec_kwargs):
    """A one-node fleet and its node."""
    fleet = OneFleet(("n1",), NodeSpec(**spec_kwargs), seed=7)
    return fleet, fleet.nodes["n1"]


class TestCpuAccounting:
    def test_cpu_time_lands_in_counters(self):
        fleet, node = make_node()
        node.account_cpu(pid=1, user_s=1.0, sys_s=0.5)
        fleet.end_tick()
        assert node.procfs.cpu.user >= 1.0
        assert node.procfs.cpu.system >= 0.5

    def test_cpu_totals_bounded_by_capacity(self):
        fleet, node = make_node(cpu_cores=2.0)
        node.account_cpu(pid=1, user_s=10.0)
        fleet.end_tick()
        assert node.procfs.cpu.total() == pytest.approx(2.0, rel=0.05)

    def test_idle_fills_unused_capacity(self):
        fleet, node = make_node(cpu_cores=4.0)
        node.account_cpu(pid=1, user_s=1.0)
        fleet.end_tick()
        assert node.procfs.cpu.idle > 2.0

    def test_iowait_recorded(self):
        fleet, node = make_node()
        node.account_iowait(0.5)
        fleet.end_tick()
        assert node.procfs.cpu.iowait > 0.0


class TestDiskAccounting:
    def test_bytes_become_sectors_and_requests(self):
        fleet, node = make_node()
        node.account_disk(pid=1, read_bytes=DISK_IO_BYTES * 2, write_bytes=DISK_IO_BYTES)
        fleet.end_tick()
        assert node.procfs.disk.reads_completed == pytest.approx(2.0)
        assert node.procfs.disk.writes_completed == pytest.approx(1.0)
        assert node.procfs.disk.sectors_read == pytest.approx(DISK_IO_BYTES * 2 / 512)

    def test_busy_time_tracks_bandwidth_fraction(self):
        fleet, node = make_node(disk_write_mb_s=10.0)
        node.account_disk(pid=1, read_bytes=0.0, write_bytes=5.0 * 1024 * 1024)
        fleet.end_tick()
        assert node.procfs.disk.io_time_ms == pytest.approx(500.0, rel=0.05)


class TestNetworkAccounting:
    def test_bytes_and_packets_counted(self):
        fleet, node = make_node()
        node.account_net(tx_bytes=14480.0, rx_bytes=7240.0)
        fleet.end_tick()
        nic = node.procfs.nic("eth0")
        assert nic.tx_bytes == pytest.approx(14480.0)
        assert nic.rx_bytes == pytest.approx(7240.0)
        assert nic.tx_packets == pytest.approx(10.0)

    def test_drops_recorded_separately(self):
        fleet, node = make_node()
        node.account_net(rx_bytes=1000.0, rx_dropped=1448.0)
        fleet.end_tick()
        assert node.procfs.nic("eth0").rx_drop == pytest.approx(1.0)


class TestDerivedCounters:
    def test_context_switches_scale_with_activity(self):
        idle_fleet, idle_node = make_node()
        idle_fleet.end_tick()
        busy_fleet, busy_node = make_node()
        busy_node.account_cpu(pid=1, user_s=3.0)
        busy_fleet.end_tick()
        assert busy_node.procfs.stat.ctxt > idle_node.procfs.stat.ctxt

    def test_loadavg_rises_under_sustained_demand(self):
        fleet, node = make_node(cpu_cores=4.0)
        for _ in range(120):
            node.note_cpu_demand(6.0)
            node.account_cpu(pid=1, user_s=4.0)
            fleet.end_tick()
        assert node.procfs.loadavg.one > 4.0

    def test_loadavg_decays_when_idle(self):
        fleet, node = make_node()
        for _ in range(60):
            node.note_cpu_demand(8.0)
            fleet.end_tick()
        peak = node.procfs.loadavg.one
        for _ in range(120):
            fleet.end_tick()
        assert node.procfs.loadavg.one < peak / 2

    def test_runq_counts_unmet_demand(self):
        fleet, node = make_node(cpu_cores=4.0)
        node.note_cpu_demand(7.0)
        fleet.end_tick()
        assert node.procfs.loadavg.runq_sz == pytest.approx(4.0)

    def test_page_cache_grows_with_io(self):
        fleet, node = make_node()
        node.account_disk(pid=1, read_bytes=50e6, write_bytes=0.0)
        fleet.end_tick()
        assert node.procfs.mem.cached_kb > 10e3


class TestProcessTable:
    def test_ensure_and_remove(self):
        _, node = make_node()
        node.ensure_process(5, "java", rss_kb=1000.0)
        assert node.procfs.processes[5].rss_kb == 1000.0
        node.remove_process(5)
        assert 5 not in node.procfs.processes

    def test_remove_missing_is_noop(self):
        make_node()[1].remove_process(12345)

    def test_per_process_cpu_attribution(self):
        fleet, node = make_node()
        node.ensure_process(5, "java", rss_kb=1000.0)
        node.account_cpu(pid=5, user_s=1.0, sys_s=0.2)
        fleet.end_tick()
        proc = node.procfs.processes[5]
        assert proc.utime == pytest.approx(1.0)
        assert proc.stime == pytest.approx(0.2)

    def test_memory_reflects_resident_sets(self):
        fleet, node = make_node()
        node.ensure_process(5, "big", rss_kb=1_000_000.0)
        fleet.end_tick()
        assert node.procfs.mem.used_kb > 1_000_000.0

    def test_plist_tracks_process_count(self):
        fleet, node = make_node()
        for pid in range(10, 15):
            node.ensure_process(pid, "p", rss_kb=10.0)
        fleet.end_tick()
        assert node.procfs.loadavg.plist_sz == 80.0 + 5


def test_determinism_same_seed_same_counters():
    def run():
        fleet = OneFleet(("n",), seed=11)
        node = fleet.nodes["n"]
        for _ in range(50):
            node.account_cpu(1, user_s=0.5)
            fleet.end_tick()
        return node.procfs.cpu.user, node.procfs.stat.ctxt

    assert run() == run()
