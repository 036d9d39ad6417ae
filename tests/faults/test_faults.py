"""Tests for the six Table 2 faults: arming, manifestation, ground truth."""

import pytest

from repro.faults import (
    FAULT_CATALOG,
    FAULT_NAMES,
    CpuHog,
    DiskHog,
    FaultSpec,
    MapHang1036,
    PacketLoss,
    ReduceHang2080,
    ShuffleFail1152,
    make_fault,
)
from repro.hadoop import BugKind, ClusterConfig, HadoopCluster, JobSpec, MB


def make_cluster(num_slaves: int = 4, seed: int = 3) -> HadoopCluster:
    return HadoopCluster(ClusterConfig(num_slaves=num_slaves, seed=seed))


def busy_cluster(seed: int = 3) -> HadoopCluster:
    cluster = make_cluster(seed=seed)
    for i in range(3):
        cluster.submit_job(
            JobSpec(
                job_id=f"200807070001_{i:04d}",
                name="job",
                input_bytes=256.0 * MB,
                num_reduces=2,
            )
        )
    return cluster


class TestCatalog:
    def test_every_table2_fault_present(self):
        assert set(FAULT_NAMES) == {
            "CPUHog",
            "DiskHog",
            "PacketLoss",
            "HADOOP-1036",
            "HADOOP-1152",
            "HADOOP-2080",
        }
        assert set(FAULT_CATALOG) == set(FAULT_NAMES)

    def test_make_fault_resolves_each(self):
        for name in FAULT_NAMES:
            fault = make_fault(name)
            assert fault.name == name
            assert fault.reported_failure

    def test_make_fault_unknown_raises(self):
        with pytest.raises(KeyError, match="catalog"):
            make_fault("MeltdownHog")


class TestGroundTruth:
    def test_basic_ground_truth(self):
        spec = FaultSpec(node="slave02", inject_time=100.0)
        truth = CpuHog().ground_truth(spec)
        assert truth.faulty_node == "slave02"
        assert truth.inject_time == 100.0
        assert truth.clear_time is None

    def test_diskhog_ground_truth_is_bounded(self):
        cluster = make_cluster()
        fault = DiskHog(total_gb=1.0)
        spec = FaultSpec(node="slave02", inject_time=100.0)
        fault.arm(cluster, spec)
        truth = fault.ground_truth(spec)
        assert truth.clear_time is not None
        expected = 100.0 + 1.0 * 1024**3 / cluster.config.node_spec.disk_write_bytes_s
        assert truth.clear_time == pytest.approx(expected, rel=0.01)

    def test_explicit_clear_time_respected(self):
        spec = FaultSpec(node="slave02", inject_time=10.0, clear_time=50.0)
        truth = DiskHog().ground_truth(spec)
        assert truth.clear_time == 50.0


class TestCpuHog:
    def test_achieves_target_utilization(self):
        cluster = make_cluster()
        CpuHog().arm(cluster, FaultSpec(node="slave02", inject_time=20.0))
        cluster.run_until(120.0)
        fs = cluster.procfs("slave02")
        busy = (fs.cpu.user + fs.cpu.system) / fs.cpu.total()
        # 70% from t=20 over 120s of history ~= 58% overall, plus noise.
        assert busy > 0.5

    def test_inactive_before_injection(self):
        cluster = make_cluster()
        CpuHog().arm(cluster, FaultSpec(node="slave02", inject_time=1000.0))
        cluster.run_until(50.0)
        fs = cluster.procfs("slave02")
        busy = (fs.cpu.user + fs.cpu.system) / fs.cpu.total()
        assert busy < 0.2

    def test_other_nodes_unaffected(self):
        cluster = make_cluster()
        CpuHog().arm(cluster, FaultSpec(node="slave02", inject_time=0.0))
        cluster.run_until(60.0)
        fs = cluster.procfs("slave01")
        busy = (fs.cpu.user + fs.cpu.system) / fs.cpu.total()
        assert busy < 0.2


class TestDiskHog:
    def test_saturates_disk(self):
        cluster = make_cluster()
        DiskHog().arm(cluster, FaultSpec(node="slave02", inject_time=0.0))
        cluster.run_until(60.0)
        fs = cluster.procfs("slave02")
        assert fs.disk.io_time_ms > 50_000.0  # busy most of the minute

    def test_stops_after_writing_total(self):
        cluster = make_cluster()
        fault = DiskHog(total_gb=0.5)
        fault.arm(cluster, FaultSpec(node="slave02", inject_time=0.0))
        cluster.run_until(120.0)
        written = cluster.procfs("slave02").disk.sectors_written * 512.0
        assert written == pytest.approx(0.5 * 1024**3, rel=0.05)


class TestPacketLoss:
    def test_loss_applied_at_inject_time(self):
        cluster = make_cluster()
        PacketLoss().arm(cluster, FaultSpec(node="slave02", inject_time=30.0))
        cluster.run_until(29.0)
        assert cluster.network.loss_rate("slave02") == 0.0
        cluster.run_until(35.0)
        assert cluster.network.loss_rate("slave02") == 0.5

    def test_loss_cleared_at_clear_time(self):
        cluster = make_cluster()
        PacketLoss().arm(
            cluster, FaultSpec(node="slave02", inject_time=10.0, clear_time=20.0)
        )
        cluster.run_until(25.0)
        assert cluster.network.loss_rate("slave02") == 0.0

    def test_custom_loss_rate(self):
        cluster = make_cluster()
        PacketLoss(loss_rate=0.9).arm(cluster, FaultSpec(node="slave02", inject_time=0.0))
        cluster.run_until(5.0)
        assert cluster.network.loss_rate("slave02") == 0.9


class TestBugFaults:
    @pytest.mark.parametrize(
        "fault_class,kind",
        [
            (MapHang1036, BugKind.MAP_HANG_1036),
            (ShuffleFail1152, BugKind.SHUFFLE_FAIL_1152),
            (ReduceHang2080, BugKind.REDUCE_HANG_2080),
        ],
    )
    def test_bug_registered_with_cluster(self, fault_class, kind):
        cluster = make_cluster()
        fault_class().arm(cluster, FaultSpec(node="slave03", inject_time=50.0))
        assert cluster.bug_for("slave03", 60.0) is kind
        assert cluster.bug_for("slave03", 40.0) is None

    def test_1036_reduces_throughput_on_node(self):
        healthy = busy_cluster()
        healthy.run_until(300.0)
        sick = busy_cluster()
        MapHang1036().arm(sick, FaultSpec(node="slave02", inject_time=0.0))
        sick.run_until(300.0)
        healthy_dones = sum(
            1 for r in healthy.tt_logs["slave02"].records() if "is done" in r.line
        )
        sick_dones = sum(
            1 for r in sick.tt_logs["slave02"].records()
            if "_m_" in r.line and "is done" in r.line
        )
        assert sick_dones == 0
        assert healthy_dones > 0


@pytest.mark.parametrize("name", FAULT_NAMES)
def test_arming_a_node_the_cluster_lacks_is_an_error(name):
    cluster = make_cluster(num_slaves=3)
    with pytest.raises(ValueError, match=r"'slave99'.*slave01, slave02, slave03"):
        make_fault(name).arm(cluster, FaultSpec(node="slave99", inject_time=1.0))
    cluster.run_until(3.0)
    assert cluster.external_loads == []
    assert cluster.network.loss_rates() == {}
    assert cluster.bug_for("slave99", 3.0) is None
