"""Checks of the benchmark itself.  Run as ``pytest bench -q``; not Tier-1.

The end-to-end tests drive ``bench/run.py --smoke`` in child processes,
exactly as the acceptance driver does, and read the last line it prints.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- the catalogue --------------------------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    doc = load_benchmark()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["bench"]
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["run_seconds"] == spec.NOMINAL_SECONDS["full"]
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    } == spec.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == spec.per_layer_catalogue()


def test_names_and_counts_fit_the_contract():
    doc = load_benchmark()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert len(doc["end_to_end"]) <= 16
    assert len(doc["per_layer"]) <= 128
    assert len(spec.SPANS) == 21 and len(spec.COUNTERS) == 34
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert set(spec.QUALITY_OF) == set(spec.WORKLOADS)


# -- the arithmetic ---------------------------------------------------------------

def test_normalise_divides_by_the_slices_around():
    def event(kind, start, end, count=1, wall_factor=3.0):
        # CPU seconds as given; wall time runs three times as fast, to
        # show that only CPU time is priced.
        return calib.Event(
            kind, calib.Stamp(start * wall_factor, start),
            calib.Stamp(end * wall_factor, end), count,
        )

    events = [
        event("tick", 0.0, 2.0),
        event("cal", 2.0, 3.0, 10),    # 0.1 s per iteration
        event("build", 3.0, 4.0),
        event("tick", 4.0, 4.5),
        event("cal", 5.0, 7.0, 4),     # 0.5 s per iteration
    ]
    entries, iter_times = calib.normalise(events)
    # first stretch: 0.1 s/iteration; second: mean of 0.1 and 0.5
    assert [e.cu for e in entries] == pytest.approx([20.0, 1 / 0.3, 0.5 / 0.3])
    assert [e.wall_s for e in entries] == pytest.approx([6.0, 3.0, 1.5])
    assert iter_times == pytest.approx([0.1, 0.5])
    with pytest.raises(ValueError):
        calib.normalise(events[:3])
    cu, wall = calib.normalise_gaps([events[1], events[4]])
    assert cu == pytest.approx(2.0 / 0.3) and wall == pytest.approx(6.0)
    assert calib.percentile(list(range(1, 101)), 95.0) == 95


def test_self_times_add_up_to_the_wall():
    rec = spans.SpanRecorder()
    rec.begin(spans.ROOT)
    rec.begin("outer")
    rec.begin("inner")
    rec.end()
    rec.end()
    rec.end()
    rec.begin(spans.ROOT)      # left open, as run_scenario leaves it
    rec.begin("outer")
    rec.end()
    rec.abort_root()
    by_name, wall = rec.self_times()
    assert set(by_name) == {spans.ROOT, "outer", "inner"}
    assert sum(by_name.values()) == pytest.approx(wall)
    assert len(rec.starts) == 3


def test_wrap_records_only_under_a_root_and_restores():
    class Layer:
        def call(self):
            return 42

    rec = spans.SpanRecorder()
    rec.wrap(Layer, "call", "layer.call")
    assert Layer().call() == 42 and not rec.names
    rec.begin(spans.ROOT)
    assert Layer().call() == 42
    rec.end()
    assert rec.names == [spans.ROOT, "layer.call"] and rec.parents == [-1, 0]
    rec.restore()
    assert Layer.call.__name__ == "call"


def test_an_exact_result_worse_than_the_committed_one_fails():
    import harness

    def repeat(**quality):
        return harness.Repeat(events=[], samples=1, attempted=4, failed=0,
                              scenario=3, quality=quality)

    committed = {"3": {"detect_delay_sim_s": 180.0, "balanced_accuracy_pct": 80.0}}
    same = repeat(detect_delay_sim_s=180.0, balanced_accuracy_pct=80.0)
    better = repeat(detect_delay_sim_s=120.0, balanced_accuracy_pct=85.0)
    slower = repeat(detect_delay_sim_s=181.0, balanced_accuracy_pct=80.0)
    blunter = repeat(detect_delay_sim_s=180.0, balanced_accuracy_pct=79.9)
    other_scenario = repeat(detect_delay_sim_s=500.0)
    other_scenario.scenario = 4
    for one in (same, better, slower, blunter, other_scenario):
        harness.gate_quality(one, committed)
    assert [r.failed for r in (same, better, other_scenario)] == [0, 0, 0]
    assert slower.failed == 4 and "detect_delay_sim_s" in slower.problems[0]
    assert blunter.failed == 4 and "balanced_accuracy_pct" in blunter.problems[0]


def test_every_scenario_of_the_baseline_is_one_of_the_seeds():
    with open(os.path.join(BENCH_DIR, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    for workload, sizes in spec.SIZES["full"].items():
        entry = baseline["workloads"][workload]
        assert entry["sizes"] == json.loads(json.dumps(sizes))
        assert len(sizes["seeds"]) == spec.AA_SEEDS
        assert set(entry["quality_by_scenario"]) == {str(s) for s in sizes["seeds"]}


# -- the command, end to end -------------------------------------------------------

class Runs:
    """Smoke runs of ``bench/run.py``, each made once per session."""

    def __init__(self, out_dir):
        self.out_dir = str(out_dir)
        self._cache = {}

    def get(self, workload, seed, trace, attempt=0):
        key = (workload, seed, trace, attempt)
        if key not in self._cache:
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke",
                 "--workload", workload, "--seed", str(seed),
                 "--trace", str(trace), "--out", self.out_dir],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            last = json.loads(done.stdout.strip().splitlines()[-1])
            with open(run.result_file(self.out_dir, workload, seed, trace),
                      encoding="utf-8") as fh:
                record = json.load(fh)
            self._cache[key] = (last, record)
        return self._cache[key]


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    return Runs(tmp_path_factory.mktemp("bench"))


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_reports_exactly_the_declared_metrics(runs, workload):
    doc = load_benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        last, _record = runs.get(workload, 7, trace)
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in doc[key]}
        assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
        assert all(isinstance(m["value"], (int, float))
                   for m in last["metrics"].values())
    end_to_end, record = runs.get(workload, 7, 0)
    assert all(m["value"] > 0 for m in end_to_end["metrics"].values())
    assert set(record["quality"]) == set(spec.QUALITY_OF[workload])


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_span_rows_cover_the_traced_wall(runs, workload):
    last, record = runs.get(workload, 7, 1)
    # obs.taps is measured against a reference run and overlaps the
    # module rows, so it is not part of the identity.
    covered = sum(
        last["metrics"][f"{span}.share"]["value"]
        for span in spec.SPANS if span != "obs.taps"
    )
    assert 98.0 <= covered <= 100.0001
    assert record["harness_share_pct"] == pytest.approx(100.0 - covered, abs=1e-6)
    with open(os.path.join(runs.out_dir, f"trace_{workload}.json"),
              encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["columns"] == ["name", "start_s", "end_s", "parent", "repeat"]
    assert trace["spans"] and all(s[1] <= s[2] for s in trace["spans"])


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_exact_metrics_repeat_for_one_seed(runs, workload):
    _, first = runs.get(workload, 7, 0)
    _, again = runs.get(workload, 7, 0, attempt=1)
    assert first["quality"] == again["quality"]
    traced, _ = runs.get(workload, 7, 1)
    traced_again, _ = runs.get(workload, 7, 1, attempt=1)
    for name in spec.exact_per_layer():
        assert traced["metrics"][name] == traced_again["metrics"][name], name


@pytest.mark.parametrize("workload", ["fleet50", "observed10", "replay25_sliding"])
def test_exact_metrics_change_with_the_seed(runs, workload):
    # wire2 is left out: its frames are fixed-size binary rows, so no
    # exact metric of it depends on the sampled values.
    one, _ = runs.get(workload, 7, 1)
    other, _ = runs.get(workload, 8, 1)
    assert any(
        one["metrics"][name] != other["metrics"][name]
        for name in spec.exact_per_layer()
    )


def test_no_wall_clock_stamp_in_the_results(runs):
    _, record = runs.get("wire2", 7, 0)
    assert {"nproc", "python", "numpy", "platform"} <= set(record["host"])
    assert record["seed"] == 7 and record["sizes"] and record["repeats"] >= 1
    assert not any(re.search(r"time|date|stamp", key) for key in record)


def test_a_broken_check_fails_the_command(monkeypatch, capsys, tmp_path):
    import harness

    harness.bootstrap_src()
    import live

    monkeypatch.setattr(live, "expected_culprit", lambda nodes: nodes[0])
    status = run.main(["--smoke", "--workload", "fleet50", "--seed", "7",
                       "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert status != 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_a_missed_detection_fails_the_run(monkeypatch, capsys, tmp_path):
    """A run too short to finger anybody: every op of it fails."""
    short = dict(spec.SIZES["smoke"]["fleet50"], duration_s=60.0)
    monkeypatch.setitem(spec.SIZES["smoke"], "fleet50", short)
    status = run.main(["--smoke", "--workload", "fleet50", "--seed", "7",
                       "--out", str(tmp_path)])
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert status != 0 and "never fingered" in out
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    import shutil

    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wire2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
