"""Parity and behavior tests for the struct-of-arrays simulator core.

The fleet's contract is *bit parity* with the per-node reference tick
(``ReferenceCluster`` in ``helpers.py``): stepped through the same jobs,
faults and packet loss, both must expose identical procfs state on every
node, every tick.
"""

import dataclasses

import pytest

from repro.hadoop import ClusterConfig, HadoopCluster
from repro.sim.vec import FleetState, VecProcFS, VecSimNode
from repro.sysstat.procfs import CpuTicks, ProcessStat, SimProcFS

from .helpers import ReferenceCluster, tick_parity_mismatches


def vec_cluster(num_slaves=4, seed=11):
    return HadoopCluster(ClusterConfig(num_slaves=num_slaves, seed=seed))


class TestEngineSelection:
    """There is none: every cluster is fleet-backed, master included."""

    def test_vec_builds_fleet_backed_nodes(self):
        for cluster in (HadoopCluster(), vec_cluster()):
            assert isinstance(cluster.fleet, FleetState)
            assert cluster.fleet.names == ["master", *cluster.slave_names]
            for node in cluster.nodes.values():
                assert isinstance(node, VecSimNode)
                assert isinstance(node.procfs, VecProcFS)

    def test_unknown_engine_rejected(self):
        assert "engine" not in {
            f.name for f in dataclasses.fields(ClusterConfig)
        }
        with pytest.raises(TypeError, match="engine"):
            ClusterConfig(num_slaves=3, seed=1, engine="scalar")


class TestViews:
    def test_views_read_fleet_arrays(self):
        cluster = vec_cluster()
        cluster.run_until(5.0)
        node = cluster.nodes["slave01"]
        i = cluster.fleet.index["slave01"]
        assert node.procfs.cpu.idle == cluster.fleet.a["cpu_idle"][i]
        assert node.procfs.mem.free_kb == cluster.fleet.a["mem_free_kb"][i]

    def test_snapshot_materializes_plain_dataclasses(self):
        """Snapshots must be detached copies, like the scalar engine's."""
        cluster = vec_cluster()
        cluster.run_until(3.0)
        procfs = cluster.procfs("slave01")
        snap = procfs.snapshot()
        assert type(snap) is SimProcFS
        assert type(snap.cpu) is CpuTicks
        before = snap.cpu.idle
        cluster.run_until(6.0)
        assert snap.cpu.idle == before  # detached from the live arrays
        assert procfs.cpu.idle != before

    def test_snapshot_copies_processes(self):
        cluster = vec_cluster()
        cluster.run_until(3.0)
        snap = cluster.procfs("slave01").snapshot()
        for proc in snap.processes.values():
            assert type(proc) is ProcessStat

    def test_node_end_tick_is_fleet_only(self):
        """Per-node end_tick is replaced by FleetState.end_tick_all."""
        cluster = vec_cluster()
        with pytest.raises(NotImplementedError):
            cluster.nodes["slave01"].end_tick(1.0)


class TestTickParity:
    def test_bit_parity_under_jobs_faults_and_loss(self):
        """Every node's full snapshot matches the reference tick exactly,
        tick for tick, with jobs running, CPU/disk hogs armed and packet
        loss injected."""
        assert tick_parity_mismatches(8, ticks=60, seed=11) == []

    def test_bit_parity_second_seed(self):
        assert tick_parity_mismatches(6, ticks=40, seed=77) == []


class TestFleetAccounting:
    def test_idle_fleet_accumulators_reset_each_tick(self):
        cluster = vec_cluster()
        cluster.run_until(10.0)
        fleet = cluster.fleet
        assert (fleet.acc_cpu_user == 0.0).all()
        assert (fleet.acc_net_tx == 0.0).all()

    def test_loadavg_decays_like_scalar(self):
        scalar = ReferenceCluster(ClusterConfig(num_slaves=4, seed=5))
        vec = HadoopCluster(ClusterConfig(num_slaves=4, seed=5))
        scalar.run_until(30.0)
        vec.run_until(30.0)
        for node in scalar.nodes:
            a = scalar.procfs(node).loadavg
            b = vec.procfs(node).loadavg
            assert (a.one, a.five, a.fifteen) == (b.one, b.five, b.fifteen)
