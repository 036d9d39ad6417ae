"""Tests for the MapReduce engine through the cluster facade."""


from repro.hadoop import (
    BugKind,
    ClusterConfig,
    HadoopCluster,
    JobCostModel,
    JobSpec,
    JobStatus,
    MB,
    TaskStatus,
)
from repro.hadoop.mapreduce import TASK_TIMEOUT_S


def cluster_with_job(
    num_slaves: int = 4,
    input_mb: float = 128.0,
    reduces: int = 2,
    seed: int = 5,
):
    cluster = HadoopCluster(ClusterConfig(num_slaves=num_slaves, seed=seed))
    spec = JobSpec(
        job_id="200807070001_0001",
        name="job",
        input_bytes=input_mb * MB,
        num_reduces=reduces,
        cost=JobCostModel(
            map_mb_per_cpu_s=16.0, sort_mb_per_cpu_s=16.0, reduce_mb_per_cpu_s=16.0
        ),
    )
    job = cluster.submit_job(spec)
    return cluster, job


class TestJobLifecycle:
    def test_maps_then_reduces_then_done(self):
        cluster, job = cluster_with_job()
        cluster.run_until(400.0)
        assert job.status is JobStatus.SUCCEEDED
        assert job.maps_done == len(job.maps)
        assert job.reduces_done == len(job.reduces)

    def test_finish_time_recorded(self):
        cluster, job = cluster_with_job()
        cluster.run_until(400.0)
        assert job.finish_time is not None
        assert job.finish_time > job.submit_time

    def test_map_outputs_registered(self):
        cluster, job = cluster_with_job()
        cluster.run_until(400.0)
        assert set(job.map_outputs) == set(range(len(job.maps)))
        for output in job.map_outputs.values():
            assert output.total_bytes > 0

    def test_input_blocks_deleted_after_job(self):
        cluster, job = cluster_with_job()
        cluster.run_until(400.0)
        deleting = sum(
            1
            for n in cluster.slave_names
            for r in cluster.dn_logs[n].records()
            if "Deleting block" in r.line
        )
        assert deleting > 0

    def test_reduce_phase_progression_in_logs(self):
        cluster, job = cluster_with_job()
        cluster.run_until(400.0)
        text = "\n".join(cluster.tt_logs[n].text() for n in cluster.slave_names)
        copy_pos = text.find("reduce > copy")
        sort_pos = text.find("reduce > sort")
        reduce_pos = text.find("reduce > reduce")
        assert 0 <= copy_pos < sort_pos < reduce_pos

    def test_output_block_written_with_replicas(self):
        cluster, job = cluster_with_job()
        cluster.run_until(400.0)
        assert job.output_blocks
        received = sum(
            1
            for n in cluster.slave_names
            for r in cluster.dn_logs[n].records()
            if "Received block" in r.line
        )
        assert received > 0


class TestBugManifestations:
    def test_map_hang_1036_blocks_completions_on_node(self):
        cluster, job = cluster_with_job(num_slaves=4, input_mb=512.0)
        cluster.set_bug("slave02", BugKind.MAP_HANG_1036, 0.0)
        cluster.run_until(200.0)
        done_lines = [
            r.line
            for r in cluster.tt_logs["slave02"].records()
            if "_m_" in r.line and "is done" in r.line
        ]
        assert done_lines == []
        # The hung attempts burn CPU on the sick node.
        fs = cluster.procfs("slave02")
        assert fs.cpu.user > 50.0

    def test_map_hang_timeout_triggers_kill_and_retry(self):
        cluster, job = cluster_with_job(num_slaves=4, input_mb=128.0)
        cluster.set_bug("slave02", BugKind.MAP_HANG_1036, 0.0)
        cluster.run_until(TASK_TIMEOUT_S + 200.0)
        killed = [
            r.line
            for r in cluster.tt_logs["slave02"].records()
            if "Killing" in r.line
        ]
        # Either no map ever landed there, or the hang was killed.
        launched = any(
            "LaunchTaskAction" in r.line and "_m_" in r.line
            for r in cluster.tt_logs["slave02"].records()
        )
        if launched:
            assert killed
        assert job.status is JobStatus.SUCCEEDED

    def test_shuffle_fail_1152_crash_loops_and_job_survives(self):
        cluster, job = cluster_with_job(num_slaves=4, input_mb=256.0, reduces=3)
        cluster.set_bug("slave02", BugKind.SHUFFLE_FAIL_1152, 0.0)
        cluster.run_until(600.0)
        failures = [
            r.line
            for r in cluster.tt_logs["slave02"].records()
            if "Error from" in r.line and "_r_" in r.line
        ]
        launched_reduce = any(
            "LaunchTaskAction" in r.line and "_r_" in r.line
            for r in cluster.tt_logs["slave02"].records()
        )
        if launched_reduce:
            assert failures
        assert job.status is JobStatus.SUCCEEDED

    def test_failed_node_avoided_on_retry(self):
        cluster, job = cluster_with_job(num_slaves=4, input_mb=256.0, reduces=3)
        cluster.set_bug("slave02", BugKind.SHUFFLE_FAIL_1152, 0.0)
        cluster.run_until(600.0)
        for task in job.reduces:
            assert task.status is TaskStatus.SUCCEEDED
            assert task.finished_on != "slave02" or "slave02" not in task.failed_on

    def test_reduce_hang_2080_wedges_attempts(self):
        cluster, job = cluster_with_job(num_slaves=4, input_mb=256.0, reduces=3)
        cluster.set_bug("slave02", BugKind.REDUCE_HANG_2080, 0.0)
        cluster.run_until(500.0)
        launched_reduce = any(
            "LaunchTaskAction" in r.line and "_r_" in r.line
            for r in cluster.tt_logs["slave02"].records()
        )
        done_reduce = any(
            "_r_" in r.line and "is done" in r.line
            for r in cluster.tt_logs["slave02"].records()
        )
        if launched_reduce:
            assert not done_reduce


class TestLocality:
    def test_majority_of_maps_run_data_local(self):
        cluster = HadoopCluster(ClusterConfig(num_slaves=6, seed=5))
        local = 0
        total = 0
        for i in range(4):
            spec = JobSpec(
                job_id=f"200807070001_{i:04d}",
                name="job",
                input_bytes=512.0 * MB,
                num_reduces=1,
            )
            job = cluster.submit_job(spec)
            cluster.run_until(cluster.time + 300.0)
            for task in job.maps:
                if task.status is TaskStatus.SUCCEEDED:
                    total += 1
                    if task.finished_on in task.block.replicas:
                        local += 1
        assert total > 0
        assert local / total > 0.6


class TestKeptCounts:
    """The scheduler keeps its done counts and running jobs as tasks and
    jobs change state; they must equal a scan of the states at all times,
    retries included."""

    def test_kept_counts_equal_the_scan_every_tick(self):
        cluster, first = cluster_with_job(num_slaves=4, input_mb=256.0, reduces=3)
        cluster.submit_job(JobSpec(
            job_id="200807070001_0002",
            name="job",
            input_bytes=192.0 * MB,
            num_reduces=2,
            cost=first.spec.cost,
        ))
        cluster.set_bug("slave02", BugKind.SHUFFLE_FAIL_1152, 0.0)
        cluster.set_bug("slave03", BugKind.MAP_HANG_1036, 0.0, TASK_TIMEOUT_S)
        jobtracker = cluster.jobtracker
        for _ in range(int(TASK_TIMEOUT_S) + 200):
            cluster.step(1.0)
            for job in jobtracker.jobs.values():
                assert job.maps_done == sum(
                    t.status is TaskStatus.SUCCEEDED for t in job.maps
                )
                assert job.reduces_done == sum(
                    t.status is TaskStatus.SUCCEEDED for t in job.reduces
                )
            assert jobtracker._active_jobs() == [
                jobtracker.jobs[job_id]
                for job_id in jobtracker.job_order
                if jobtracker.jobs[job_id].status is JobStatus.RUNNING
            ]
        lines = {
            node: [r.line for r in cluster.tt_logs[node].records()]
            for node in ("slave02", "slave03")
        }
        # Both kinds of retry happened: a failed reduce and a timed-out map.
        assert any("Error from" in line and "_r_" in line for line in lines["slave02"])
        assert any("Killing" in line and "_m_" in line for line in lines["slave03"])
        assert all(
            job.status is JobStatus.SUCCEEDED for job in jobtracker.jobs.values()
        )
