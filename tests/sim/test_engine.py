"""Tests for per-tick demand collection and arbitration."""

import pytest

from repro.sim import NodeSpec

from .fleet import OneFleet


def make_context(dt: float = 1.0, cores: float = 4.0):
    fleet = OneFleet(("a", "b"), NodeSpec(cpu_cores=cores))
    return fleet.context(dt), fleet


class TestCpuArbitration:
    def test_under_capacity_full_grant(self):
        ctx, _ = make_context()
        demand = ctx.demand_cpu("a", pid=1, cores=2.0)
        ctx.arbitrate()
        assert demand.granted == pytest.approx(2.0)

    def test_over_capacity_proportional(self):
        ctx, _ = make_context(cores=4.0)
        d1 = ctx.demand_cpu("a", pid=1, cores=6.0)
        d2 = ctx.demand_cpu("a", pid=2, cores=2.0)
        ctx.arbitrate()
        assert d1.granted == pytest.approx(3.0)
        assert d2.granted == pytest.approx(1.0)

    def test_nodes_do_not_contend_with_each_other(self):
        ctx, _ = make_context(cores=4.0)
        d1 = ctx.demand_cpu("a", pid=1, cores=4.0)
        d2 = ctx.demand_cpu("b", pid=1, cores=4.0)
        ctx.arbitrate()
        assert d1.granted == pytest.approx(4.0)
        assert d2.granted == pytest.approx(4.0)

    def test_book_records_consumed_cpu_on_node(self):
        ctx, fleet = make_context()
        demand = ctx.demand_cpu("a", pid=1, cores=2.0)
        ctx.arbitrate()
        demand.book(1.5, iowait=0.5)
        fleet.end_tick()
        cpu = fleet.nodes["a"].procfs.cpu
        assert cpu.user + cpu.system >= 1.4
        assert cpu.iowait > 0.0

    def test_book_clamps_to_grant(self):
        ctx, fleet = make_context()
        demand = ctx.demand_cpu("a", pid=1, cores=1.0)
        ctx.arbitrate()
        demand.book(100.0)
        fleet.end_tick()
        cpu = fleet.nodes["a"].procfs.cpu
        assert cpu.user + cpu.system <= 1.1

    def test_book_all_consumes_full_grant(self):
        ctx, fleet = make_context()
        demand = ctx.demand_cpu("a", pid=1, cores=2.0)
        ctx.arbitrate()
        demand.book_all()
        fleet.end_tick()
        cpu = fleet.nodes["a"].procfs.cpu
        assert cpu.user + cpu.system == pytest.approx(2.0, rel=0.05)

    def test_demand_notes_runq_pressure(self):
        ctx, fleet = make_context(cores=4.0)
        ctx.demand_cpu("a", pid=1, cores=10.0)
        ctx.arbitrate()
        fleet.end_tick()
        assert fleet.nodes["a"].procfs.loadavg.runq_sz > 0


class TestDiskArbitration:
    def test_reads_and_writes_share_device(self):
        ctx, fleet = make_context()
        spec = fleet.nodes["a"].spec
        # Demand 2x the device's one-second capability in each direction.
        demand = ctx.demand_disk(
            "a",
            pid=1,
            read_bytes=spec.disk_read_bytes_s * 2,
            write_bytes=spec.disk_write_bytes_s * 2,
        )
        ctx.arbitrate()
        busy = (
            demand.read_granted / spec.disk_read_bytes_s
            + demand.write_granted / spec.disk_write_bytes_s
        )
        assert busy == pytest.approx(1.0, rel=0.01)

    def test_small_demand_fully_granted(self):
        ctx, _ = make_context()
        demand = ctx.demand_disk("a", pid=1, read_bytes=1000.0, write_bytes=500.0)
        ctx.arbitrate()
        assert demand.read_granted == pytest.approx(1000.0)
        assert demand.write_granted == pytest.approx(500.0)

    def test_disk_grants_booked_on_node(self):
        ctx, fleet = make_context()
        ctx.demand_disk("a", pid=1, read_bytes=1024.0 * 512)
        ctx.arbitrate()
        fleet.end_tick()
        assert fleet.nodes["a"].procfs.disk.sectors_read == pytest.approx(1024.0)


class TestNetworkThroughEngine:
    def test_transfer_books_both_endpoints(self):
        ctx, fleet = make_context()
        ctx.demand_transfer("a", "b", 1448.0 * 10)
        ctx.arbitrate()
        fleet.end_tick()
        assert fleet.nodes["a"].procfs.nic("eth0").tx_bytes == pytest.approx(14480.0)
        assert fleet.nodes["b"].procfs.nic("eth0").rx_bytes == pytest.approx(14480.0)

    def test_local_transfer_books_nothing(self):
        ctx, fleet = make_context()
        ctx.demand_transfer("a", "a", 1e6)
        ctx.arbitrate()
        fleet.end_tick()
        assert fleet.nodes["a"].procfs.nic("eth0").tx_bytes == 0.0
