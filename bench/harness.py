"""What every workload shares: seeds, the per-repeat record, the span
names of the module types, and the arithmetic that turns event logs into
metrics.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from calib import Event, normalise, percentile
from spec import QUALITY, REPO_ROOT, SPANS, per_layer_catalogue
from spans import ROOT, SpanRecorder


def bootstrap_src() -> None:
    """Put this checkout's ``src/`` first on the import path.

    The benchmark measures the program beside it, never an installed
    copy, so a checkout without ``src/repro`` is an error.
    """
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"bench: no program to measure: {src}/repro is missing")
    if src not in sys.path:
        sys.path.insert(0, src)


def scenario_seed(sizes: Dict[str, Any], seed: int, index: int = 0) -> int:
    """The scenario ``--seed`` (and a repeat's index) picks from ``seeds``."""
    pool = sizes["seeds"]
    return pool[(seed + index) % len(pool)]


def fingerprint() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# -- one measured repeat --------------------------------------------------------

@dataclass
class Repeat:
    """Everything one repeat recorded; metrics are derived afterwards."""

    events: List[Event]
    samples: int
    attempted: int
    failed: int
    #: The scenario seed the repeat ran on; its exact results hang on it.
    scenario: int
    problems: List[str] = field(default_factory=list)
    quality: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    signature: Any = None
    gc_gen2: int = 0

    def fail_all(self, problem: str) -> None:
        """A failed run-level check fails every op of the repeat."""
        self.problems.append(problem)
        self.failed = self.attempted


class GcWatch:
    """Full collections between construction and ``stop``.

    Construction collects first, so every repeat starts from a clean
    heap and none pays for its predecessor's garbage.
    """

    def __init__(self) -> None:
        gc.collect()
        self._gen2 = gc.get_stats()[2]["collections"]

    def stop(self, repeat: Repeat) -> Repeat:
        repeat.gc_gen2 = gc.get_stats()[2]["collections"] - self._gen2
        return repeat


def timed(rec: Optional[SpanRecorder], name: str, fn: Callable, *args: Any) -> Any:
    """Call ``fn`` under a span when tracing, directly otherwise."""
    if rec is None:
        return fn(*args)
    rec.begin(name)
    try:
        return fn(*args)
    finally:
        rec.end()


def modules_of(core: Any, type_name: str) -> List[Any]:
    """The core's module instances of one configuration type."""
    found = []
    for instance_id in core.instances:
        module = core.instance(instance_id)
        if module.type_name == type_name:
            found.append(module)
    return found


#: Module type -> span; types are resolved by ``type_name`` through the
#: registry, so a class rename in ``src/`` does not break the trace.
MODULE_SPANS = {
    "sadc": "modules.sadc",
    "hadoop_log": "modules.hadoop_log",
    "knn": "modules.knn",
    "knnfleet": "modules.knn",
    "ibuffer": "modules.ibuffer",
    "analysis_bb": "modules.analysis_bb",
    "analysis_wb": "modules.analysis_wb",
    "alarm_union": "modules.alarms",
    "print": "modules.alarms",
    "scoreboard": "modules.alarms",
    "replay_source": "flightrec.replay_source",
}


def wrap_modules(rec: SpanRecorder, registry: Any) -> None:
    for type_name, span in MODULE_SPANS.items():
        if type_name in registry:
            rec.wrap(registry.resolve(type_name), "run", span)


# -- event log -> metrics -------------------------------------------------------

@dataclass
class RepeatCost:
    cost_cu: float        # calibration units per node-sample
    tick_p95_cu: float
    ticks: int
    raw_us: float         # wall microseconds per node-sample
    wall_s: float         # timed work only, calibration left out
    cpu_s: float
    cal_iter_us: List[float]
    cal_share_pct: float


def repeat_cost(repeat: Repeat) -> RepeatCost:
    entries, iter_times = normalise(repeat.events)
    ticks = [entry.cu for entry in entries if entry.kind == "tick"]
    wall = sum(entry.wall_s for entry in entries)
    cal = sum(e.wall_s for e in repeat.events if e.kind == "cal")
    samples = max(1, repeat.samples)
    return RepeatCost(
        cost_cu=sum(entry.cu for entry in entries) / samples,
        tick_p95_cu=percentile(ticks, 95.0),
        ticks=len(ticks),
        raw_us=wall / samples * 1e6,
        wall_s=wall,
        cpu_s=sum(e.cpu_s for e in repeat.events if e.kind != "cal"),
        cal_iter_us=[t * 1e6 for t in iter_times],
        cal_share_pct=100.0 * cal / (cal + wall),
    )


def committed_quality(workload: str, sizes: Dict[str, Any]) -> Dict[str, Any]:
    """``baseline.json``'s exact results by scenario seed.

    Empty when the baseline was measured at other sizes: then there is
    nothing to hold the run against.
    """
    path = os.path.join(REPO_ROOT, "bench", "baseline.json")
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)["workloads"].get(workload, {})
    if entry.get("sizes") != json.loads(json.dumps(sizes)):
        return {}
    return entry["quality_by_scenario"]


def gate_quality(repeat: Repeat, committed: Dict[str, Any]) -> None:
    """Bound 0: an exact result worse than the committed one of the same
    scenario fails the repeat."""
    expected = committed.get(str(repeat.scenario), {})
    for name, value in repeat.quality.items():
        if name not in expected:
            continue
        lower_is_better = QUALITY[name][1] == "lower"
        if (value > expected[name]) if lower_is_better else (value < expected[name]):
            repeat.fail_all(
                f"scenario {repeat.scenario}: {name} {value!r} is worse than "
                f"the committed {expected[name]!r}"
            )


def quality_medians(repeats: Sequence[Repeat]) -> Dict[str, float]:
    names = sorted({name for repeat in repeats for name in repeat.quality})
    return {
        name: statistics.median(r.quality[name] for r in repeats)
        for name in names
    }


def layer_metrics(
    traced: Repeat, rec: SpanRecorder, derived: Dict[str, float],
) -> Tuple[Dict[str, float], float]:
    """The per-layer table of the traced repeat, and its harness share.

    ``derived`` carries rows measured against a reference run
    (``obs.taps.us``, ``trace.overhead_pct``); a layer or counter the
    workload never touches reads 0.
    """
    cost = repeat_cost(traced)
    self_s, wall = rec.self_times()
    samples = max(1, traced.samples)
    metrics = {name: 0.0 for name in per_layer_catalogue()}
    for span in SPANS:
        seconds = self_s.get(span, 0.0)
        metrics[f"{span}.us"] = seconds / samples * 1e6
        metrics[f"{span}.share"] = 100.0 * seconds / wall
    per_sample_us = wall / samples * 1e6
    if "obs.taps.us" in derived:
        metrics["obs.taps.share"] = 100.0 * derived["obs.taps.us"] / per_sample_us
    quartiles = statistics.quantiles(cost.cal_iter_us, n=4)
    metrics.update({
        "host.wall_s": cost.wall_s,
        "host.cpu_s": cost.cpu_s,
        "host.samples_per_s": samples / cost.wall_s,
        "host.cal_iter_us_p50": quartiles[1],
        "host.cal_iter_us_iqr": quartiles[2] - quartiles[0],
        "host.cal_share_pct": cost.cal_share_pct,
        "host.gc_gen2": float(traced.gc_gen2),
    })
    metrics.update(traced.counters)
    metrics.update(traced.quality)
    metrics.update(derived)
    harness_share = 100.0 * self_s.get(ROOT, 0.0) / wall
    return metrics, harness_share
