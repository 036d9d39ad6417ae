"""Tests for the parallel experiment engine (`repro.experiments.runner`).

The engine's core guarantee: a matrix run at any worker count produces
*byte-identical* result documents to a serial run -- deterministic
per-task seeds, a parent-trained model shipped to workers, and one
shared execution path make that possible.
"""

import gc
import multiprocessing

import pytest

from repro.experiments import (
    ModelCache,
    ScenarioConfig,
    derive_seed,
    parity_mismatches,
    run_tasks,
    scenario_matrix,
    shared_model,
    table2_matrix,
    training_signature,
)
from repro.experiments import runner as runner_mod
from repro.faults import FAULT_NAMES
from repro.telemetry import Telemetry

#: Small-but-real scenario: large enough to produce alarms/decisions,
#: small enough that a matrix of them stays in test-suite budget.
MINI = ScenarioConfig(num_slaves=3, duration_s=120.0, seed=11, inject_time=40.0)


@pytest.fixture(scope="module")
def mini_model():
    return shared_model(MINI, training_duration_s=120.0)


class TestChunkedDispatch:
    """Pool submissions batch tasks; flattened order must be unchanged."""

    def test_chunks_preserve_order_and_cover_everything(self):
        items = [(f"t{i}", {}, None) for i in range(11)]
        chunks = runner_mod._chunk_items(items, jobs=3)
        flattened = [item for chunk in chunks for item in chunk]
        assert flattened == items

    def test_chunk_count_bounded_by_workers(self):
        items = [(f"t{i}", {}, None) for i in range(100)]
        chunks = runner_mod._chunk_items(items, jobs=4)
        assert len(chunks) == 4 * runner_mod.CHUNKS_PER_WORKER
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1  # balanced
        assert all(sizes)

    def test_fewer_items_than_chunks(self):
        items = [("only", {}, None)]
        assert runner_mod._chunk_items(items, jobs=8) == [items]


class TestDeriveSeed:
    def test_deterministic_and_31_bit(self):
        a = derive_seed(42, "CPUHog", 0)
        assert a == derive_seed(42, "CPUHog", 0)
        assert 0 <= a < 2**31

    def test_distinct_coordinates_distinct_seeds(self):
        seeds = {
            derive_seed(42, fault, trial)
            for fault in FAULT_NAMES
            for trial in range(10)
        }
        assert len(seeds) == len(FAULT_NAMES) * 10

    def test_base_seed_changes_everything(self):
        assert derive_seed(1, "x", 0) != derive_seed(2, "x", 0)


class TestMatrices:
    def test_table2_matrix_shape(self):
        tasks = table2_matrix(MINI, faults=("CPUHog", "DiskHog"), trials=3)
        assert [t.task_id for t in tasks] == [
            "CPUHog/t0", "CPUHog/t1", "CPUHog/t2",
            "DiskHog/t0", "DiskHog/t1", "DiskHog/t2",
        ]
        assert all(t.config.fault_name in ("CPUHog", "DiskHog") for t in tasks)
        assert len({t.config.seed for t in tasks}) == len(tasks)
        # Everything except fault/seed inherited from the base config.
        assert all(t.config.num_slaves == MINI.num_slaves for t in tasks)

    def test_sweep_axis_multiplies_matrix(self):
        tasks = scenario_matrix(
            MINI,
            faults=("CPUHog",),
            trials=2,
            sweep=("bb_threshold", [40.0, 65.0]),
        )
        assert [t.task_id for t in tasks] == [
            "CPUHog/t0/bb_threshold=40.0",
            "CPUHog/t0/bb_threshold=65.0",
            "CPUHog/t1/bb_threshold=40.0",
            "CPUHog/t1/bb_threshold=65.0",
        ]
        assert {t.config.bb_threshold for t in tasks} == {40.0, 65.0}

    def test_fault_free_axis(self):
        (task,) = scenario_matrix(MINI, faults=(None,))
        assert task.task_id == "fault-free/t0"
        assert task.config.fault_name is None

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            scenario_matrix(MINI, trials=0)

    def test_matrix_is_reproducible(self):
        first = table2_matrix(MINI, faults=FAULT_NAMES, trials=2)
        second = table2_matrix(MINI, faults=FAULT_NAMES, trials=2)
        assert [t.config for t in first] == [t.config for t in second]


class TestModelCache:
    def test_trains_once_per_signature(self, monkeypatch):
        calls = []

        class FakeModel:
            centroids = None
            sigma = None

        def fake_train(**kwargs):
            calls.append(kwargs)
            return FakeModel()

        monkeypatch.setattr(runner_mod, "train_blackbox_model", fake_train)
        cache = ModelCache()
        same_a = ScenarioConfig(num_slaves=3, duration_s=120.0, seed=5)
        same_b = ScenarioConfig(
            num_slaves=3, duration_s=120.0, seed=5, fault_name="CPUHog"
        )
        other = ScenarioConfig(num_slaves=3, duration_s=120.0, seed=6)
        key_a, model_a = cache.get(same_a)
        key_b, model_b = cache.get(same_b)
        key_c, _ = cache.get(other)
        assert key_a == key_b and model_a is model_b
        assert key_c != key_a
        assert cache.trainings == len(calls) == 2

    def test_signature_tracks_training_inputs(self):
        base = ScenarioConfig(num_slaves=3, duration_s=120.0, seed=5)
        assert training_signature(base) == training_signature(
            ScenarioConfig(num_slaves=3, duration_s=120.0, seed=5,
                           fault_name="DiskHog", inject_time=10.0)
        )
        assert training_signature(base) != training_signature(
            ScenarioConfig(num_slaves=4, duration_s=120.0, seed=5)
        )
        assert training_signature(base) != training_signature(
            base, training_duration_s=60.0
        )


class TestSerialParallelParity:
    def test_jobs_4_byte_identical_to_serial(self, mini_model):
        """The acceptance bar: a table2 mini-matrix at jobs=4 returns
        result documents byte-identical to jobs=1."""
        tasks = table2_matrix(MINI, faults=("CPUHog", "DiskHog"), trials=1)
        serial = run_tasks(tasks, jobs=1, model=mini_model)
        parallel = run_tasks(tasks, jobs=4, model=mini_model)
        assert serial.mode == "serial"
        assert parallel.mode in ("process-pool", "serial-fallback")
        assert parity_mismatches(serial, parallel) == []
        for a, b in zip(serial.results, parallel.results):
            assert a.task.task_id == b.task.task_id
            assert a.canonical_json() == b.canonical_json()

    def test_results_preserve_submission_order(self, mini_model):
        tasks = table2_matrix(MINI, faults=("CPUHog", "DiskHog"), trials=1)
        report = run_tasks(tasks, jobs=2, model=mini_model)
        assert [r.task.task_id for r in report.results] == [
            t.task_id for t in tasks
        ]

    def test_loaded_results_expose_scores(self, mini_model):
        (task,) = table2_matrix(MINI, faults=("CPUHog",), trials=1)
        report = run_tasks([task], jobs=1, model=mini_model)
        loaded = report.results[0].load()
        assert loaded.truth.faulty_node is not None
        assert 0.0 <= loaded.counts_bb.balanced_accuracy <= 1.0
        assert loaded.counts_all.true_negatives >= 0
        # load() is cached: same object back.
        assert report.results[0].load() is loaded

    def test_parity_mismatches_detects_differences(self, mini_model):
        (task,) = table2_matrix(MINI, faults=("CPUHog",), trials=1)
        a = run_tasks([task], jobs=1, model=mini_model)
        b = run_tasks([task], jobs=1, model=mini_model)
        assert parity_mismatches(a, b) == []
        b.results[0].payload["jobs_completed"] += 1
        assert parity_mismatches(a, b) == ["CPUHog/t0"]

    def test_each_call_reaps_its_own_pool(self, mini_model):
        """The pool lives for one call: two calls, no child left behind."""
        tasks = table2_matrix(MINI, faults=("CPUHog",), trials=1)
        before = set(multiprocessing.active_children())
        first = run_tasks(tasks, jobs=2, model=mini_model)
        second = run_tasks(tasks, jobs=2, model=mini_model)
        assert parity_mismatches(first, second) == []
        assert set(multiprocessing.active_children()) <= before


class TestSerialFallback:
    def test_pool_failure_falls_back_with_identical_results(
        self, mini_model, monkeypatch
    ):
        tasks = table2_matrix(MINI, faults=("CPUHog",), trials=1)
        serial = run_tasks(tasks, jobs=1, model=mini_model)

        def broken_pool(items, jobs, models_json):
            raise OSError("no process spawning here")

        monkeypatch.setattr(runner_mod, "_pool_results", broken_pool)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            fallback = run_tasks(tasks, jobs=4, model=mini_model)
        assert fallback.mode == "serial-fallback"
        assert parity_mismatches(serial, fallback) == []

    def test_in_process_runs_do_not_freeze_the_callers_heap(
        self, mini_model, monkeypatch
    ):
        """``gc.freeze()`` is for a fresh worker; run in the caller it
        would park every live object (garbage included) for good."""
        (task,) = table2_matrix(MINI, faults=("CPUHog",), trials=1)
        frozen = gc.get_freeze_count()
        run_tasks([task], jobs=1, model=mini_model)
        assert gc.get_freeze_count() == frozen

        def broken_pool(items, jobs, models_json):
            raise OSError("no process spawning here")

        monkeypatch.setattr(runner_mod, "_pool_results", broken_pool)
        with pytest.warns(RuntimeWarning):
            run_tasks([task], jobs=2, model=mini_model)
        assert gc.get_freeze_count() == frozen

    def test_jobs_zero_means_cpu_count(self, mini_model):
        (task,) = table2_matrix(MINI, faults=("CPUHog",), trials=1)
        report = run_tasks([task], jobs=0, model=mini_model)
        assert report.jobs >= 1


class TestTimingsAndBench:
    def test_per_task_timings_recorded(self, mini_model):
        tasks = table2_matrix(MINI, faults=("CPUHog", "DiskHog"), trials=1)
        telemetry = Telemetry()
        report = run_tasks(tasks, jobs=1, model=mini_model, telemetry=telemetry)
        assert all(r.wall_s > 0 for r in report.results)
        assert all(r.cpu_s >= 0 for r in report.results)
        assert all(r.worker.startswith("pid:") for r in report.results)
        assert report.task_wall_s > 0 and report.cpu_s >= 0
        assert telemetry.metrics.total("asdf_experiment_tasks_total") == len(tasks)

    def test_report_lookup(self, mini_model):
        (task,) = table2_matrix(MINI, faults=("CPUHog",), trials=1)
        report = run_tasks([task], jobs=1, model=mini_model)
        assert report.result("CPUHog/t0") is report.results[0]
        with pytest.raises(KeyError):
            report.result("nope")


class TestCheckParityCommand:
    """``repro bench --check-parity``: name the differing tasks, exit 1."""

    @staticmethod
    def _bench(monkeypatch, differ):
        from repro import cli

        submitted = []

        def fake_run_tasks(tasks, jobs, model):
            submitted[:] = tasks
            results = [
                runner_mod.TaskResult(
                    task, {"alarms": [jobs if differ and i == 1 else 0]},
                    wall_s=0.1, cpu_s=0.1, worker="w",
                )
                for i, task in enumerate(tasks)
            ]
            mode = "serial" if jobs == 1 else "process-pool"
            return runner_mod.EngineReport(jobs, mode, 1.0, results)

        monkeypatch.setattr(cli, "shared_model", lambda *a, **k: None)
        monkeypatch.setattr(cli, "run_tasks", fake_run_tasks)
        code = cli.main([
            "bench", "--faults", "CPUHog", "--trials", "2",
            "--jobs", "2", "--check-parity",
        ])
        return code, submitted

    def test_mismatch_names_the_tasks_and_exits_one(self, monkeypatch, capsys):
        code, tasks = self._bench(monkeypatch, differ=True)
        assert code == 1
        captured = capsys.readouterr()
        assert f"parity vs serial: MISMATCH in ['{tasks[1].task_id}']" in captured.out
        assert captured.err == ""

    def test_identical_runs_exit_zero(self, monkeypatch, capsys):
        code, _tasks = self._bench(monkeypatch, differ=False)
        assert code == 0
        assert "parity vs serial: IDENTICAL" in capsys.readouterr().out
