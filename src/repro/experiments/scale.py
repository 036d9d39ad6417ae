"""The 50->1000-node scaling benchmark: scalar vs vectorized data plane.

Three measurements, each per (fleet size, engine):

* **tick throughput** -- how fast the simulator core advances an idle
  (daemons + external load, no jobs) cluster, in ticks/second.  This
  isolates the struct-of-arrays refactor (:mod:`repro.sim.vec`) from
  job-bookkeeping Python that is identical in both engines.
* **pipeline samples/second** -- an end-to-end data-plane loop: step the
  cluster one second, collect every node's black-box vector through the
  sampler its engine calls for (:func:`repro.sysstat.sadc.node_sampler`:
  per-node ``Sadc`` under ``scalar``, the one-pass fleet ``sadc`` under
  ``vec``), classify the fleet
  against a centroid model, and fold the states into window histograms
  with L1 peer deviations.  The ``scalar`` engine uses the per-node
  classify/histogram loops; ``vec`` uses the fleet-batched passes
  (:func:`repro.analysis.kmeans.nearest_k_batch`,
  :func:`repro.analysis.fleet.state_histogram_batch`).
* **parity** -- the two engines are only comparable because their
  outputs are bit-identical: :func:`tick_parity_mismatches` steps both
  engines through jobs + faults + packet loss and compares every node's
  full procfs snapshot every tick; :func:`scenario_parity_mismatches`
  runs the whole ASDF scenario (vec additionally switches on the
  fleet-batched ``knnfleet``/analysis paths) and compares alarms,
  window decisions, scoreboard counts and the analysis channels' bytes.

:func:`run_scale_benchmark` drives all of it and produces the
``BENCH_scale.json`` payload; :func:`check_scale_gate` is the CI
regression gate over a committed baseline.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.fleet import state_histogram_batch
from ..analysis.kmeans import nearest_k, nearest_k_batch
from ..analysis.peer import state_histogram, state_vector_l1_deviation
from ..faults import FaultSpec, make_fault
from ..hadoop import MB, ClusterConfig, HadoopCluster, JobSpec
from ..sysstat.metrics import NODE_METRICS
from ..sysstat.sadc import node_sampler

#: Engines compared by every measurement.
SCALE_ENGINES = ("scalar", "vec")

#: Default fleet sizes of the committed trajectory (ISSUE: 50 -> 1000).
DEFAULT_SIZES = (50, 200, 500, 1000)

#: Fleet sizes whose parity is asserted by default.
DEFAULT_PARITY_SIZES = (50, 200)

#: States in the synthetic pipeline-benchmark centroid model.
_PIPELINE_STATES = 7


def _cluster(num_slaves: int, engine: str, seed: int) -> HadoopCluster:
    return HadoopCluster(
        ClusterConfig(num_slaves=num_slaves, seed=seed, engine=engine)
    )


def measure_tick_rate(
    num_slaves: int,
    engine: str,
    ticks: int = 200,
    warmup: int = 10,
    seed: int = 11,
) -> Dict[str, Any]:
    """Time ``ticks`` one-second steps of an idle cluster."""
    cluster = _cluster(num_slaves, engine, seed)
    for _ in range(warmup):
        cluster.step(1.0)
    started = time.perf_counter()
    for _ in range(ticks):
        cluster.step(1.0)
    wall_s = time.perf_counter() - started
    return {
        "num_slaves": num_slaves,
        "engine": engine,
        "ticks": ticks,
        "tick_wall_s": wall_s,
        "tick_ms": 1000.0 * wall_s / ticks,
        "ticks_per_s": ticks / wall_s if wall_s > 0 else float("inf"),
    }


def _pipeline_model(seed: int = 97) -> Tuple[np.ndarray, np.ndarray]:
    """A deterministic synthetic centroid model over the node catalog."""
    rng = np.random.default_rng(seed)
    centroids = rng.gamma(2.0, 1.0, (_PIPELINE_STATES, len(NODE_METRICS)))
    sigma = np.ones(len(NODE_METRICS))
    return centroids, sigma


def measure_pipeline_rate(
    num_slaves: int,
    engine: str,
    seconds: int = 60,
    window: int = 30,
    seed: int = 11,
) -> Dict[str, Any]:
    """Time the end-to-end data plane: sim -> sadc -> classify -> window.

    ``engine`` selects both the simulator core and the analysis style:
    ``scalar`` classifies and histograms node by node (the per-node
    ``knn``-module path), ``vec`` runs one fleet-batched pass per second
    and per window round.  The math is bit-identical either way (pinned
    by the parity tests); this measures only the throughput difference.
    """
    cluster = _cluster(num_slaves, engine, seed)
    nodes = list(cluster.slave_names)
    samplers = [node_sampler(cluster.procfs(node)) for node in nodes]
    centroids, sigma = _pipeline_model()
    batched = engine == "vec"
    states: List[np.ndarray] = []
    samples = 0
    rounds = 0
    started = time.perf_counter()
    for second in range(seconds + 1):
        cluster.step(1.0)
        now = cluster.time
        raw = [sampler.collect_vector(now) for sampler in samplers]
        if any(row is None for row in raw):
            continue  # priming second
        vectors = np.array(raw)
        if batched:
            scaled = np.log1p(np.maximum(vectors, 0.0)) / sigma
            column = nearest_k_batch(scaled, centroids, 1)[:, 0]
        else:
            column = np.array(
                [
                    nearest_k(
                        np.log1p(np.maximum(row, 0.0)) / sigma, centroids, 1
                    )[0]
                    for row in vectors
                ]
            )
        states.append(column)
        samples += len(nodes)
        if len(states) >= window:
            assignments = np.stack(states, axis=1).astype(int)
            if batched:
                histograms = state_histogram_batch(
                    assignments, _PIPELINE_STATES
                )
            else:
                histograms = np.array(
                    [
                        state_histogram(row, _PIPELINE_STATES)
                        for row in assignments
                    ]
                )
            state_vector_l1_deviation(histograms)
            states.clear()
            rounds += 1
    wall_s = time.perf_counter() - started
    return {
        "num_slaves": num_slaves,
        "engine": engine,
        "pipeline_seconds": seconds,
        "pipeline_rounds": rounds,
        "pipeline_wall_s": wall_s,
        "samples_per_s": samples / wall_s if wall_s > 0 else float("inf"),
    }


# --------------------------------------------------------------------------
# Parity
# --------------------------------------------------------------------------


def _exercise(cluster: HadoopCluster) -> None:
    """Submit jobs and arm faults so parity covers the busy paths."""
    slaves = list(cluster.slave_names)
    for i in range(2):
        cluster.submit_job(
            JobSpec(
                job_id=f"200807070001_{i:04d}",
                name="parity",
                input_bytes=192.0 * MB,
                num_reduces=2,
            )
        )
    make_fault("CPUHog").arm(
        cluster, FaultSpec(node=slaves[1], inject_time=20.0)
    )
    make_fault("DiskHog").arm(
        cluster, FaultSpec(node=slaves[2], inject_time=25.0)
    )
    cluster.network.set_loss_rate(slaves[3], 0.3)


def tick_parity_mismatches(
    num_slaves: int, ticks: int = 90, seed: int = 11
) -> List[str]:
    """(tick, node) labels whose procfs snapshots differ between engines.

    Both engines step the same busy cluster (jobs, CPU/disk hogs, packet
    loss) tick by tick; every node's full snapshot -- all counter
    groups, process table, NICs -- must compare exactly (float equality,
    i.e. bit-for-bit for finite values) on every tick.
    """
    scalar = _cluster(num_slaves, "scalar", seed)
    vec = _cluster(num_slaves, "vec", seed)
    _exercise(scalar)
    _exercise(vec)
    mismatches: List[str] = []
    nodes = list(scalar.nodes)
    for tick in range(ticks):
        scalar.step(1.0)
        vec.step(1.0)
        for node in nodes:
            a = dataclasses.asdict(scalar.procfs(node).snapshot())
            b = dataclasses.asdict(vec.procfs(node).snapshot())
            if a != b:
                mismatches.append(f"tick {tick} node {node}")
    return mismatches


def _scenario_key(result) -> List[Tuple[str, Any]]:
    """The comparable essence of a scenario run, channel bytes included."""
    key: List[Tuple[str, Any]] = [
        (
            "alarms",
            [(a.time, a.node, a.source, a.detail) for a in result.alarms_all],
        ),
        (
            "decisions_bb",
            [
                (d.node, d.window_start, d.window_end, d.alarmed)
                for d in result.decisions_bb
            ],
        ),
        (
            "decisions_wb",
            [
                (d.node, d.window_start, d.window_end, d.alarmed)
                for d in result.decisions_wb
            ],
        ),
        ("counts_bb", result.counts_bb),
        ("counts_wb", result.counts_wb),
        ("counts_all", result.counts_all),
        ("jobs_completed", result.jobs_completed),
        (
            "stats_bb",
            [
                (
                    tuple(s["nodes"]),
                    tuple(s["deviations"]),
                    np.asarray(s["histograms"]).tobytes(),
                )
                for s in result.stats_bb
            ],
        ),
        (
            "stats_wb",
            [
                (
                    tuple(s["nodes"]),
                    np.asarray(s["means"]).tobytes(),
                    np.asarray(s["stds"]).tobytes(),
                )
                for s in result.stats_wb
            ],
        ),
    ]
    return key


def scenario_parity_mismatches(
    num_slaves: int,
    duration_s: float = 300.0,
    seed: int = 31,
    fault_name: Optional[str] = "CPUHog",
    model=None,
) -> List[str]:
    """Field names that differ between a scalar and a vectorized run.

    The vectorized run also switches on ``fleet_knn`` so the batched
    classification/analysis paths are the ones being compared.  One
    shared model keeps training out of the comparison.
    """
    from .scenario import ScenarioConfig, run_scenario

    base = dict(
        num_slaves=num_slaves,
        duration_s=duration_s,
        seed=seed,
        fault_name=fault_name,
        inject_time=duration_s / 3.0,
    )
    if model is None:
        from .figures import shared_model

        model = shared_model(
            ScenarioConfig(**base), training_duration_s=120.0
        )
    scalar = run_scenario(ScenarioConfig(**base, engine="scalar"), model=model)
    vec = run_scenario(
        ScenarioConfig(**base, engine="vec", fleet_knn=True), model=model
    )
    return [
        name
        for (name, a), (_, b) in zip(
            _scenario_key(scalar), _scenario_key(vec)
        )
        if a != b
    ]


# --------------------------------------------------------------------------
# The benchmark driver and its gate
# --------------------------------------------------------------------------


def run_scale_benchmark(
    sizes: Sequence[int] = DEFAULT_SIZES,
    ticks: int = 200,
    pipeline_seconds: int = 60,
    parity_sizes: Sequence[int] = DEFAULT_PARITY_SIZES,
    parity_ticks: int = 90,
    seed: int = 11,
    check_parity: bool = True,
    progress=None,
) -> Dict[str, Any]:
    """Measure the full scaling curve; returns the BENCH_scale payload."""

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    rows: List[Dict[str, Any]] = []
    for num_slaves in sizes:
        for engine in SCALE_ENGINES:
            note(f"tick throughput: N={num_slaves} engine={engine}")
            row = measure_tick_rate(num_slaves, engine, ticks=ticks, seed=seed)
            note(f"pipeline: N={num_slaves} engine={engine}")
            row.update(
                measure_pipeline_rate(
                    num_slaves, engine, seconds=pipeline_seconds, seed=seed
                )
            )
            rows.append(row)

    def _row(num_slaves: int, engine: str) -> Dict[str, Any]:
        return next(
            r
            for r in rows
            if r["num_slaves"] == num_slaves and r["engine"] == engine
        )

    tick_speedup = {
        str(n): _row(n, "vec")["ticks_per_s"] / _row(n, "scalar")["ticks_per_s"]
        for n in sizes
    }
    pipeline_speedup = {
        str(n): _row(n, "vec")["samples_per_s"]
        / _row(n, "scalar")["samples_per_s"]
        for n in sizes
    }

    parity: Dict[str, Any] = {
        "sizes": list(parity_sizes),
        "ticks": parity_ticks,
        "checked": bool(check_parity),
        "mismatches": None,
    }
    if check_parity:
        labels: List[str] = []
        for num_slaves in parity_sizes:
            note(f"parity: N={num_slaves} ({parity_ticks} ticks)")
            labels.extend(
                f"N={num_slaves}: {label}"
                for label in tick_parity_mismatches(
                    num_slaves, ticks=parity_ticks, seed=seed
                )
            )
        parity["mismatches"] = len(labels)
        parity["mismatch_labels"] = labels[:20]

    return {
        "name": "scale",
        "sizes": list(sizes),
        "ticks": ticks,
        "pipeline_seconds": pipeline_seconds,
        "rows": rows,
        "tick_speedup": tick_speedup,
        "pipeline_speedup": pipeline_speedup,
        "parity": parity,
    }


def write_scale_json(
    payload: Dict[str, Any], directory: Optional[Union[str, Path]] = None
) -> Path:
    """Write ``BENCH_scale.json`` next to the other trajectory files."""
    from .runner import bench_output_dir

    directory = Path(directory) if directory is not None else bench_output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "BENCH_scale.json"
    path.write_text(json.dumps(payload, indent=2))
    return path


def check_scale_gate(
    payload: Dict[str, Any],
    baseline_path: Optional[Union[str, Path]] = None,
    min_speedup: float = 1.0,
    slack: float = 0.7,
) -> Tuple[bool, str]:
    """CI gate over a scale payload.

    Asserts, at the largest measured size: vectorized tick throughput is
    at least ``min_speedup`` times scalar; parity, when checked, found
    zero mismatches; and -- when a committed baseline is given -- the
    vectorized speedup has not regressed below ``slack`` times the
    baseline's at the largest size both share (slack absorbs shared
    runner noise).
    """
    problems: List[str] = []
    sizes = payload.get("sizes") or []
    speedups = payload.get("tick_speedup") or {}
    if not sizes or not speedups:
        return False, "scale gate: payload has no measurements"
    top = str(max(sizes))
    measured = float(speedups[top])
    if measured < min_speedup:
        problems.append(
            f"vec/scalar tick speedup {measured:.2f}x at N={top} is below "
            f"the {min_speedup:.2f}x floor"
        )
    parity = payload.get("parity") or {}
    if parity.get("checked") and parity.get("mismatches"):
        problems.append(
            f"{parity['mismatches']} parity mismatch(es): "
            f"{parity.get('mismatch_labels')}"
        )
    if baseline_path is not None:
        try:
            baseline = json.loads(Path(baseline_path).read_text())
        except (OSError, ValueError) as error:
            problems.append(f"cannot read baseline {baseline_path}: {error}")
            baseline = None
        if baseline is not None:
            base_speedups = baseline.get("tick_speedup") or {}
            shared = [
                s for s in map(str, sizes) if s in base_speedups
            ]
            if shared:
                at = max(shared, key=int)
                floor = float(base_speedups[at]) * slack
                if float(speedups[at]) < floor:
                    problems.append(
                        f"tick speedup {float(speedups[at]):.2f}x at N={at} "
                        f"regressed below {floor:.2f}x "
                        f"(baseline {float(base_speedups[at]):.2f}x "
                        f"* slack {slack:.2f})"
                    )
    if problems:
        return False, "scale gate: FAIL -- " + "; ".join(problems)
    return True, (
        f"scale gate: PASS -- vec/scalar {measured:.2f}x at N={top}, "
        f"parity mismatches: {parity.get('mismatches')}"
    )


__all__ = [
    "DEFAULT_PARITY_SIZES",
    "DEFAULT_SIZES",
    "SCALE_ENGINES",
    "check_scale_gate",
    "measure_pipeline_rate",
    "measure_tick_rate",
    "run_scale_benchmark",
    "scenario_parity_mismatches",
    "tick_parity_mismatches",
    "write_scale_json",
]
