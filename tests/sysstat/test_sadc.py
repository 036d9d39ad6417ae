"""Tests for the per-node ``sadc`` oracle."""

import pytest

from repro.sysstat import NODE_METRICS

from .sadc_oracle import Sadc, SimProcFS


@pytest.fixture
def procfs() -> SimProcFS:
    return SimProcFS(num_cpus=4)


class TestPriming:
    def test_first_collect_returns_none(self, procfs):
        assert Sadc(procfs).collect(0.0) is None

    def test_second_collect_returns_sample(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        sample = sadc.collect(1.0)
        assert sample is not None
        assert sample.timestamp == 1.0

    def test_zero_elapsed_returns_none(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(1.0)
        assert sadc.collect(1.0) is None


class TestNodeMetrics:
    def test_all_catalog_metrics_present(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        sample = sadc.collect(1.0)
        assert set(sample.node) == set(NODE_METRICS)

    def test_cpu_percentages_sum_to_100(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.user += 1.0
        procfs.cpu.system += 0.5
        procfs.cpu.iowait += 0.5
        procfs.cpu.idle += 2.0
        sample = sadc.collect(1.0)
        total = sum(
            sample.node[name]
            for name in NODE_METRICS
            if name.startswith("cpu_") and name.endswith("_pct")
        )
        assert total == pytest.approx(100.0)

    def test_cpu_user_fraction(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.user += 3.0
        procfs.cpu.idle += 1.0
        sample = sadc.collect(1.0)
        assert sample.node["cpu_user_pct"] == pytest.approx(75.0)

    def test_counter_rates_divide_by_elapsed(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 8.0
        procfs.stat.ctxt += 1000.0
        sample = sadc.collect(2.0)
        assert sample.node["cswch_per_s"] == pytest.approx(500.0)

    def test_gauges_passed_through(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        procfs.loadavg.one = 2.5
        procfs.loadavg.runq_sz = 3.0
        sample = sadc.collect(1.0)
        assert sample.node["ldavg_1"] == 2.5
        assert sample.node["runq_sz"] == 3.0

    def test_disk_rates(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        procfs.disk.sectors_written += 2048.0  # 1 MB in sectors
        sample = sadc.collect(1.0)
        assert sample.node["bwrtn_per_s"] == pytest.approx(2048.0)

    def test_counter_decrease_clamps_to_zero(self, procfs):
        sadc = Sadc(procfs)
        procfs.stat.ctxt = 100.0
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        procfs.stat.ctxt = 50.0  # counter reset
        sample = sadc.collect(1.0)
        assert sample.node["cswch_per_s"] == 0.0

    def test_node_vector_is_catalog_ordered(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        sample = sadc.collect(1.0)
        vector = sample.node_vector()
        assert vector.shape == (64,)
        assert vector[NODE_METRICS.index("cpu_idle_pct")] == pytest.approx(
            sample.node["cpu_idle_pct"]
        )


class TestNicMetrics:
    def test_nic_rates(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        nic = procfs.nic("eth0")
        nic.rx_bytes += 1024.0 * 100
        nic.tx_packets += 50.0
        sample = sadc.collect(1.0)
        assert sample.nics["eth0"]["rxkb_per_s"] == pytest.approx(100.0)
        assert sample.nics["eth0"]["txpck_per_s"] == pytest.approx(50.0)

    def test_new_nic_skipped_until_second_sample(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.nic("eth1")  # appears after priming
        procfs.cpu.idle += 4.0
        sample = sadc.collect(1.0)
        assert "eth1" not in sample.nics
        procfs.cpu.idle += 4.0
        assert "eth1" in sadc.collect(2.0).nics

    def test_ifutil_bounded(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        procfs.nic("eth0").rx_bytes += 1e12
        sample = sadc.collect(1.0)
        assert sample.nics["eth0"]["ifutil_pct"] <= 100.0


class TestProcessMetrics:
    def test_process_cpu_percent(self, procfs):
        proc = procfs.process(7, "java")
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        proc.utime += 0.5
        proc.stime += 0.25
        sample = sadc.collect(1.0)
        metrics = sample.processes[7]
        assert metrics["pcpu_user_pct"] == pytest.approx(50.0)
        assert metrics["pcpu_system_pct"] == pytest.approx(25.0)
        assert metrics["pcpu_total_pct"] == pytest.approx(75.0)

    def test_new_process_skipped_until_second_sample(self, procfs):
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.process(9, "late")
        procfs.cpu.idle += 4.0
        assert 9 not in sadc.collect(1.0).processes

    def test_process_io_rates(self, procfs):
        proc = procfs.process(7, "java")
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        proc.read_kb += 300.0
        sample = sadc.collect(1.0)
        assert sample.processes[7]["kb_rd_per_s"] == pytest.approx(300.0)

    def test_mem_pct_relative_to_total(self, procfs):
        procfs.mem.total_kb = 1000.0
        proc = procfs.process(7, "java")
        proc.rss_kb = 250.0
        sadc = Sadc(procfs)
        sadc.collect(0.0)
        procfs.cpu.idle += 4.0
        sample = sadc.collect(1.0)
        assert sample.processes[7]["mem_pct"] == pytest.approx(25.0)
