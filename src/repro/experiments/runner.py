"""Parallel experiment engine: fan ``run_scenario`` tasks across workers.

The paper's evaluation (Tables 2-4, Figures 6-7) is hundreds of
*independent* scenario runs -- 6 faults x several trials x threshold
sweeps.  Each run is deterministic given its :class:`ScenarioConfig`, so
the matrix parallelizes perfectly; what used to serialize everything was
the harness, not the workload.  This module is the harness fix:

* :func:`scenario_matrix` / :func:`table2_matrix` expand a base
  configuration into a task list (fault x trial x sweep point), deriving
  per-task seeds deterministically from the base seed with
  :func:`derive_seed` -- the same matrix always produces the same seeds,
  regardless of worker count or completion order.
* :class:`ModelCache` trains the black-box model **once in the parent**
  per unique training signature (a hash of the training configuration)
  and ships the plain-JSON payload (:func:`.model.model_to_payload`) to
  the workers, so no worker ever retrains.
* :func:`run_tasks` executes the matrix in-process when ``jobs=1`` and
  otherwise on one per-call ``ProcessPoolExecutor`` (``jobs`` workers),
  falling back to serial execution with a warning when a pool cannot
  be created.  Workers return the :func:`.persist.result_payload`
  plain-data document, so a parallel run is byte-comparable -- and
  byte-identical -- to a serial one.
* :class:`EngineReport` carries per-task wall/CPU timings (also surfaced
  through :meth:`.telemetry.Telemetry.record_task`); how fast the
  pipeline itself runs is ``bench/``'s question, not this module's.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults import FAULT_NAMES
from ..hadoop.cluster import ClusterConfig
from ..telemetry import Telemetry
from .model import (
    BlackBoxModel,
    model_from_payload,
    model_to_payload,
    train_blackbox_model,
)
from .persist import LoadedResult, result_payload
from .scenario import ScenarioConfig, run_scenario

__all__ = [
    "EngineReport",
    "ExperimentTask",
    "ModelCache",
    "TaskResult",
    "derive_seed",
    "parity_mismatches",
    "run_tasks",
    "scenario_matrix",
    "table2_matrix",
    "training_signature",
]


# --------------------------------------------------------------------------
# Deterministic per-task seeds
# --------------------------------------------------------------------------


def derive_seed(base_seed: int, *parts: Any) -> int:
    """A stable 31-bit seed derived from ``base_seed`` and task coordinates.

    SHA-256 over the canonical string of every coordinate, so the
    mapping is independent of Python's per-process hash randomization,
    of the platform, and of task submission order -- the property the
    serial-vs-parallel parity guarantee rests on.
    """
    text = "\x1f".join([str(int(base_seed))] + [repr(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# --------------------------------------------------------------------------
# Task matrices
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentTask:
    """One independent evaluation run: an id plus its full configuration."""

    task_id: str
    config: ScenarioConfig


def scenario_matrix(
    base: ScenarioConfig,
    faults: Sequence[Optional[str]] = (None,),
    trials: int = 1,
    sweep: Optional[Tuple[str, Sequence[Any]]] = None,
) -> List[ExperimentTask]:
    """Expand ``base`` into a fault x trial x sweep-point task list.

    ``sweep``, when given, is ``(config_field, values)`` -- e.g.
    ``("bb_threshold", [40, 50, 60])`` -- and multiplies the matrix by
    one task per value.  Every task's seed is derived from the base seed
    and its coordinates, so trials are independent runs and the whole
    matrix is reproducible from ``base.seed`` alone.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sweep_field, sweep_values = sweep if sweep is not None else (None, [None])
    tasks: List[ExperimentTask] = []
    for fault in faults:
        for trial in range(trials):
            for value in sweep_values:
                overrides: Dict[str, Any] = {
                    "fault_name": fault,
                    "seed": derive_seed(
                        base.seed, fault or "", trial, sweep_field or "", value
                    ),
                }
                task_id = f"{fault or 'fault-free'}/t{trial}"
                if sweep_field is not None:
                    overrides[sweep_field] = value
                    task_id += f"/{sweep_field}={value}"
                tasks.append(
                    ExperimentTask(task_id, replace(base, **overrides))
                )
    return tasks


def table2_matrix(
    base: ScenarioConfig,
    faults: Sequence[str] = FAULT_NAMES,
    trials: int = 1,
) -> List[ExperimentTask]:
    """The Table 2 evaluation matrix: every injected fault x ``trials``."""
    return scenario_matrix(base, faults=list(faults), trials=trials)


# --------------------------------------------------------------------------
# Parent-side model cache
# --------------------------------------------------------------------------


def training_signature(
    config: ScenarioConfig, training_duration_s: Optional[float] = None
) -> str:
    """Hash of everything that determines the trained black-box model.

    Mirrors the default-training path of :func:`.scenario.run_scenario`:
    cluster size, the shifted training seed, training duration, k-means
    state count and k-means seed.  Two configurations with the same
    signature train byte-identical models, so the cache may serve both.
    """
    duration = (
        training_duration_s
        if training_duration_s is not None
        else min(300.0, config.duration_s)
    )
    key = {
        "num_slaves": config.num_slaves,
        "cluster_seed": config.seed + 1000,
        "duration_s": float(duration),
        "num_states": config.num_states,
        "kmeans_seed": config.seed,
    }
    return hashlib.sha256(
        json.dumps(key, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


class ModelCache:
    """Train-once storage of black-box models, keyed by training signature."""

    def __init__(self) -> None:
        self._models: Dict[str, BlackBoxModel] = {}
        self.trainings = 0

    def put(self, key: str, model: BlackBoxModel) -> None:
        self._models[key] = model

    def get(
        self,
        config: ScenarioConfig,
        training_duration_s: Optional[float] = None,
    ) -> Tuple[str, BlackBoxModel]:
        """The (signature, model) for ``config``, training on first miss."""
        key = training_signature(config, training_duration_s)
        model = self._models.get(key)
        if model is None:
            duration = (
                training_duration_s
                if training_duration_s is not None
                else min(300.0, config.duration_s)
            )
            model = train_blackbox_model(
                cluster_config=ClusterConfig(
                    num_slaves=config.num_slaves, seed=config.seed + 1000
                ),
                duration_s=duration,
                num_states=config.num_states,
                seed=config.seed,
            )
            self._models[key] = model
            self.trainings += 1
        return key, model

    def payloads(self) -> Dict[str, dict]:
        return {key: model_to_payload(m) for key, m in self._models.items()}


# --------------------------------------------------------------------------
# Worker protocol
# --------------------------------------------------------------------------

#: Per-process state installed by :func:`_install_models`: raw JSON
#: payloads and the models materialized from them (lazily, per key).
_worker_payloads: Dict[str, dict] = {}
_worker_models: Dict[str, BlackBoxModel] = {}


def _install_models(models_json: str) -> None:
    """Parse the parent's trained models for :func:`_execute_task`."""
    global _worker_payloads, _worker_models
    _worker_payloads = json.loads(models_json)
    _worker_models = {}


def _worker_init(models_json: str) -> None:
    """Pool initializer: receive the parent's trained models as JSON."""
    _install_models(models_json)
    # Freeze everything imported/parsed so far out of the cyclic GC's
    # generations: workers churn through millions of short-lived sim
    # objects, and rescanning the permanent interpreter/model state on
    # every collection is pure overhead (it also keeps forked pages
    # copy-on-write-clean on POSIX).  Fresh workers only: the serial
    # path runs in the caller's process, whose heap is not ours to
    # move into the permanent generation.
    gc.freeze()


def _worker_model(key: str) -> BlackBoxModel:
    model = _worker_models.get(key)
    if model is None:
        model = model_from_payload(_worker_payloads[key])
        _worker_models[key] = model
    return model


def _execute_task(
    item: Tuple[str, Dict[str, Any], Optional[str]],
) -> Tuple[str, Dict[str, Any], float, float, str]:
    """Run one task and return its plain-data result document + timings.

    This is the single execution path: the serial fallback calls it
    in-process and the pool pickles it to workers, so ``jobs=1`` and
    ``jobs=N`` runs are the same code against the same shipped model.
    """
    task_id, config_dict, model_key = item
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    config = ScenarioConfig(**config_dict)
    model = _worker_model(model_key) if model_key is not None else None
    result = run_scenario(config, model=model)
    payload = result_payload(result)
    return (
        task_id,
        payload,
        time.perf_counter() - wall_started,
        time.process_time() - cpu_started,
        f"pid:{os.getpid()}",
    )


# --------------------------------------------------------------------------
# Results and reports
# --------------------------------------------------------------------------


@dataclass
class TaskResult:
    """One finished task: its result document plus execution accounting."""

    task: ExperimentTask
    payload: Dict[str, Any]
    wall_s: float
    cpu_s: float
    worker: str
    _loaded: Optional[LoadedResult] = field(default=None, repr=False)

    def load(self) -> LoadedResult:
        """The result document as a scoreable :class:`LoadedResult`."""
        if self._loaded is None:
            self._loaded = LoadedResult(self.payload)
        return self._loaded

    def canonical_json(self) -> str:
        """Canonical serialization used for byte-level parity checks."""
        return json.dumps(self.payload, sort_keys=True)


@dataclass
class EngineReport:
    """Everything one engine invocation did."""

    jobs: int
    mode: str  # "serial", "process-pool", or "serial-fallback"
    wall_s: float
    results: List[TaskResult]
    model_keys: Tuple[str, ...] = ()
    trainings: int = 0

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def task_wall_s(self) -> float:
        """Sum of per-task wall seconds (serial-equivalent work)."""
        return sum(r.wall_s for r in self.results)

    def result(self, task_id: str) -> TaskResult:
        for item in self.results:
            if item.task.task_id == task_id:
                return item
        raise KeyError(f"no task {task_id!r} in report")

    def loaded_results(self) -> List[LoadedResult]:
        return [r.load() for r in self.results]


def parity_mismatches(a: EngineReport, b: EngineReport) -> List[str]:
    """Task ids whose result documents differ between two reports.

    Byte-level comparison of canonical JSON: the acceptance bar for the
    parallel engine is *identical* results, not statistically similar
    ones.
    """
    results_b = {r.task.task_id: r for r in b.results}
    mismatched = []
    for result_a in a.results:
        other = results_b.get(result_a.task.task_id)
        if other is None or result_a.canonical_json() != other.canonical_json():
            mismatched.append(result_a.task.task_id)
    mismatched.extend(
        task_id
        for task_id in results_b
        if all(r.task.task_id != task_id for r in a.results)
    )
    return mismatched


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


#: Target chunks per worker when batching pool submissions.  More than
#: one chunk per worker keeps the pool load-balanced when task costs are
#: uneven; batching several tasks per submit amortizes the per-future
#: pickling, IPC and bookkeeping that dominates short matrices.
CHUNKS_PER_WORKER = 2


def _chunk_items(
    items: List[Tuple[str, Dict[str, Any], Optional[str]]], jobs: int
) -> List[List[Tuple[str, Dict[str, Any], Optional[str]]]]:
    """Split the matrix into at most ``jobs * CHUNKS_PER_WORKER`` chunks.

    Contiguous, near-equal splits preserve submission order, so results
    flattened chunk by chunk come back in the same order the per-task
    dispatch produced -- byte-identical reports either way.
    """
    chunk_count = max(1, min(len(items), jobs * CHUNKS_PER_WORKER))
    base, extra = divmod(len(items), chunk_count)
    chunks = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _execute_chunk(
    chunk: List[Tuple[str, Dict[str, Any], Optional[str]]],
) -> List[Tuple[str, Dict[str, Any], float, float, str]]:
    """Run one submitted chunk of tasks, in order, in this worker."""
    return [_execute_task(item) for item in chunk]


def _pool_results(
    items: List[Tuple[str, Dict[str, Any], Optional[str]]],
    jobs: int,
    models_json: str,
):
    """Dispatch chunks on a process pool, yielding in submission order."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_worker_init, initargs=(models_json,)
    ) as pool:
        futures = [
            pool.submit(_execute_chunk, chunk)
            for chunk in _chunk_items(items, jobs)
        ]
        for future in futures:
            yield from future.result()


def run_tasks(
    tasks: Sequence[ExperimentTask],
    jobs: int = 1,
    model: Optional[BlackBoxModel] = None,
    model_cache: Optional[ModelCache] = None,
    training_duration_s: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
) -> EngineReport:
    """Execute an experiment matrix, parallel across processes.

    ``model`` shares one pre-trained model across every task (the usual
    benchmark setup); otherwise each task's training signature is
    resolved against ``model_cache`` (or a fresh cache) and trained *in
    the parent*, once per unique signature.  Workers receive all models
    as one JSON document and never retrain.

    ``jobs <= 0`` means "one worker per CPU".  ``jobs == 1`` -- or any
    environment where a process pool cannot be created -- executes the
    identical task path serially in-process; results are byte-identical
    either way.
    """
    jobs = int(jobs) if jobs > 0 else (os.cpu_count() or 1)
    cache = model_cache if model_cache is not None else ModelCache()

    items: List[Tuple[str, Dict[str, Any], Optional[str]]] = []
    if model is not None:
        shared_key = "shared"
        payloads = {shared_key: model_to_payload(model)}
        for task in tasks:
            items.append((task.task_id, asdict(task.config), shared_key))
    else:
        for task in tasks:
            key, _ = cache.get(task.config, training_duration_s)
            items.append((task.task_id, asdict(task.config), key))
        payloads = cache.payloads()
    models_json = json.dumps(payloads, sort_keys=True)

    mode = "serial" if jobs == 1 else "process-pool"
    wall_started = time.perf_counter()
    if jobs > 1:
        try:
            raw = list(_pool_results(items, jobs, models_json))
        except (ImportError, OSError, PermissionError, NotImplementedError) as exc:
            warnings.warn(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            mode = "serial-fallback"
    if mode != "process-pool":
        _install_models(models_json)
        raw = [_execute_task(item) for item in items]
    wall_s = time.perf_counter() - wall_started

    by_id = {task.task_id: task for task in tasks}
    results = [
        TaskResult(by_id[task_id], payload, task_wall, task_cpu, worker)
        for task_id, payload, task_wall, task_cpu, worker in raw
    ]
    if telemetry is not None and telemetry.enabled:
        for item in results:
            telemetry.record_task(
                item.task.task_id, item.wall_s, item.cpu_s, worker=item.worker
            )
    return EngineReport(
        jobs=jobs,
        mode=mode,
        wall_s=wall_s,
        results=results,
        model_keys=tuple(sorted(payloads)),
        trainings=cache.trainings,
    )
