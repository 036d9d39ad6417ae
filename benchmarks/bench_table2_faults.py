"""Table 2: the injected faults and the failures they simulate.

Regenerates the fault catalog and validates, per fault, that arming it
against a live cluster produces the manifestation Table 2 describes.
The benchmark times one full inject-and-manifest cycle across all six
faults, then runs the full monitored fault matrix through the parallel
experiment runner (``ASDF_BENCH_JOBS`` workers) and drops its timings
-- wall time, per-task wall/CPU, speedup vs serial when parallel -- in
``BENCH_table2.json``.
"""

from conftest import BENCH_JOBS, EVAL_CONFIG

from repro.experiments import (
    parity_mismatches,
    run_tasks,
    table2,
    table2_matrix,
)
from repro.faults import FAULT_NAMES, FaultSpec, make_fault
from repro.hadoop import ClusterConfig, HadoopCluster, JobSpec, MB


def _manifest_one(fault_name: str) -> bool:
    """Arm the fault on a small busy cluster and check it bites."""
    cluster = HadoopCluster(ClusterConfig(num_slaves=4, seed=3))
    for i in range(3):
        cluster.submit_job(
            JobSpec(
                job_id=f"200807070001_{i:04d}",
                name="job",
                input_bytes=256.0 * MB,
                num_reduces=2,
            )
        )
    fault = make_fault(fault_name)
    fault.arm(cluster, FaultSpec(node="slave02", inject_time=30.0))
    cluster.run_until(240.0)
    fs = cluster.procfs("slave02")
    if fault_name == "CPUHog":
        return (fs.cpu.user + fs.cpu.system) / fs.cpu.total() > 0.4
    if fault_name == "DiskHog":
        return fs.disk.io_time_ms > 100_000.0
    if fault_name == "PacketLoss":
        return cluster.network.loss_rate("slave02") == 0.5
    if fault_name == "HADOOP-1036":
        return not any(
            "_m_" in r.line and "is done" in r.line and r.time > 60.0
            for r in cluster.tt_logs["slave02"].records()
        )
    if fault_name == "HADOOP-1152":
        # Crash-looping reduces: failures logged, and no reduce finishes
        # on the sick node once the bug is active.
        records = cluster.tt_logs["slave02"].records()
        return not any(
            "_r_" in r.line and "is done" in r.line and r.time > 35.0
            for r in records
        )
    if fault_name == "HADOOP-2080":
        records = cluster.tt_logs["slave02"].records()
        return not any(
            "_r_" in r.line and "is done" in r.line and r.time > 35.0
            for r in records
        )
    return False


def test_table2_fault_catalog(benchmark):
    def inject_all():
        return {name: _manifest_one(name) for name in FAULT_NAMES}

    manifested = benchmark.pedantic(inject_all, rounds=1, iterations=1)

    print("\nTable 2: injected faults and the reported failures they simulate")
    print(f"{'Fault':<12} {'Manifested':<10} Reported failure")
    for row in table2():
        ok = "yes" if manifested[row.fault_name] else "NO"
        print(f"{row.fault_name:<12} {ok:<10} {row.reported_failure}")
        print(f"{'':<12} {'':<10} injected: {row.injected}")
    assert all(manifested.values()), manifested


def test_table2_fault_matrix_runner(benchmark, eval_model):
    """The monitored fault matrix through the parallel experiment runner.

    Times the whole matrix at ``ASDF_BENCH_JOBS`` workers; when running
    parallel, also executes the serial reference and asserts the results
    are byte-identical (the engine's core guarantee) so the recorded
    speedup compares equal work.
    """
    tasks = table2_matrix(EVAL_CONFIG, faults=FAULT_NAMES, trials=1)

    serial = None
    if BENCH_JOBS != 1:
        serial = run_tasks(tasks, jobs=1, model=eval_model)

    report = benchmark.pedantic(
        lambda: run_tasks(tasks, jobs=BENCH_JOBS, model=eval_model),
        rounds=1,
        iterations=1,
    )
    if serial is not None:
        assert parity_mismatches(serial, report) == []

    print(
        f"\nTable 2 matrix: {len(tasks)} scenarios, mode={report.mode}, "
        f"jobs={report.jobs}, wall={report.wall_s:.2f}s"
    )
    if serial is not None:
        print(
            f"serial reference: {serial.wall_s:.2f}s "
            f"-> speedup {serial.wall_s / report.wall_s:.2f}x"
        )

    # Every fault in the matrix completed and scored.
    assert len(report.results) == len(tasks)
    for task_result in report.results:
        loaded = task_result.load()
        assert loaded.truth.faulty_node is not None
