"""Drivers regenerating every table and figure of the paper's evaluation.

Each function runs the experiments for one artifact and returns a small
result object whose ``render()`` produces the same rows/series the paper
reports.  The benchmark harness under ``benchmarks/`` calls these.

* :func:`table2` -- the fault catalog (Table 2).
* Table 3 / Table 4 -- see :mod:`repro.experiments.overhead`.
* :func:`figure6` -- false-positive rate vs threshold, black-box (6a)
  and white-box (6b), from fault-free runs.
* :func:`figure7` -- balanced accuracy (7a) and fingerpointing latency
  (7b) per injected fault for the black-box, white-box, and combined
  fingerpointers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..faults import FAULT_CATALOG, FAULT_NAMES, make_fault
from ..telemetry import Telemetry
from .model import BlackBoxModel, train_blackbox_model, training_inputs
from .runner import EngineReport, ExperimentTask, run_tasks
from .scenario import ScenarioConfig
from .sweep import blackbox_fp_sweep, whitebox_fp_sweep


def shared_model(config: ScenarioConfig,
                 training_duration_s: Optional[float] = None) -> BlackBoxModel:
    """Train the black-box model once for a batch of runs
    (:func:`.model.training_inputs`)."""
    return train_blackbox_model(**training_inputs(config, training_duration_s))


# --------------------------------------------------------------------------
# Table 2
# --------------------------------------------------------------------------


@dataclass
class Table2Row:
    fault_name: str
    reported_failure: str
    injected: str


def table2() -> List[Table2Row]:
    """The fault catalog, straight from the implemented faults."""
    injected_text = {
        "CPUHog": "External task consuming ~70% CPU utilization",
        "DiskHog": "Sequential disk workload writing 20 GB",
        "PacketLoss": "50% packet loss induced on the node's NIC",
        "HADOOP-1036": "Map attempts spin forever (unhandled exception)",
        "HADOOP-1152": "Reduce attempts fail at the end of the copy phase",
        "HADOOP-2080": "Reduce attempts hang on a miscomputed checksum",
    }
    rows = []
    for name in FAULT_NAMES:
        fault = make_fault(name)
        rows.append(
            Table2Row(
                fault_name=name,
                reported_failure=fault.reported_failure,
                injected=injected_text[name],
            )
        )
    return rows


# --------------------------------------------------------------------------
# Figure 6
# --------------------------------------------------------------------------


@dataclass
class Figure6Result:
    """Both panels: FP-rate curves over the detection parameter."""

    blackbox: List[Tuple[float, float]]   # (threshold, FP %)
    whitebox: List[Tuple[float, float]]   # (k, FP %)
    #: Execution accounting of the underlying scenario run(s), for the
    #: benchmark harness's ``BENCH_*`` trajectory files.
    engine: Optional[EngineReport] = field(default=None, repr=False)

    def render(self) -> str:
        lines = ["Figure 6(a): black-box false-positive rate vs threshold"]
        lines += [f"  threshold={t:6.1f}  FP={fp:6.2f}%" for t, fp in self.blackbox]
        lines.append("Figure 6(b): white-box false-positive rate vs k")
        lines += [f"  k={k:4.1f}           FP={fp:6.2f}%" for k, fp in self.whitebox]
        return "\n".join(lines)


#: Default threshold sweep for figure6 (0..70 in steps of 5).
_FIGURE6_THRESHOLDS = tuple(range(0, 75, 5))


def figure6(
    config: Optional[ScenarioConfig] = None,
    thresholds: Sequence[float] = _FIGURE6_THRESHOLDS,
    ks: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
    model: Optional[BlackBoxModel] = None,
    jobs: int = 1,
    telemetry: Optional[Telemetry] = None,
) -> Figure6Result:
    """Threshold sweeps on a problem-free run (paper section 4.9).

    Both sweeps re-score the *same* captured fault-free statistics, so
    there is exactly one scenario to run; it goes through the experiment
    runner (``jobs`` workers) so the benchmark harness gets uniform
    per-task timing accounting.
    """
    if config is None:
        config = ScenarioConfig()
    config = ScenarioConfig(**{**config.__dict__, "fault_name": None})
    if model is None:
        model = shared_model(config)
    report = run_tasks(
        [ExperimentTask("fault-free", config)],
        jobs=jobs,
        model=model,
        telemetry=telemetry,
    )
    result = report.results[0].load()
    return Figure6Result(
        blackbox=blackbox_fp_sweep(
            result.stats_bb, thresholds, consecutive=config.bb_consecutive
        ),
        whitebox=whitebox_fp_sweep(
            result.stats_wb, ks, consecutive=config.wb_consecutive
        ),
        engine=report,
    )


# --------------------------------------------------------------------------
# Figure 7
# --------------------------------------------------------------------------


@dataclass
class Figure7Row:
    """One fault's outcome across the three fingerpointers."""

    fault_name: str
    ba_blackbox: float
    ba_whitebox: float
    ba_combined: float
    latency_blackbox: Optional[float]
    latency_whitebox: Optional[float]
    latency_combined: Optional[float]
    runs: int = 1

    @staticmethod
    def _latency_text(value: Optional[float]) -> str:
        return f"{value:7.0f}" if value is not None else "      -"

    def render(self) -> str:
        return (
            f"{self.fault_name:<12} "
            f"{100 * self.ba_blackbox:6.1f} {100 * self.ba_whitebox:6.1f} "
            f"{100 * self.ba_combined:6.1f}   "
            f"{self._latency_text(self.latency_blackbox)} "
            f"{self._latency_text(self.latency_whitebox)} "
            f"{self._latency_text(self.latency_combined)}"
        )


@dataclass
class Figure7Result:
    rows: List[Figure7Row] = field(default_factory=list)
    #: Execution accounting of the fault x seed matrix, for ``BENCH_*``.
    engine: Optional[EngineReport] = field(default=None, repr=False)

    def mean_ba(self) -> Tuple[float, float, float]:
        n = max(1, len(self.rows))
        return (
            sum(r.ba_blackbox for r in self.rows) / n,
            sum(r.ba_whitebox for r in self.rows) / n,
            sum(r.ba_combined for r in self.rows) / n,
        )

    def render(self) -> str:
        header = (
            f"{'Fault':<12} {'BA-bb%':>6} {'BA-wb%':>6} {'BA-all%':>6}   "
            f"{'lat-bb':>7} {'lat-wb':>7} {'lat-all':>7}"
        )
        lines = ["Figure 7(a)+(b): balanced accuracy and latency per fault", header]
        lines += [row.render() for row in self.rows]
        bb, wb, combined = self.mean_ba()
        lines.append(
            f"{'MEAN':<12} {100 * bb:6.1f} {100 * wb:6.1f} {100 * combined:6.1f}"
            "   (paper: 71 / 78 / 80)"
        )
        return "\n".join(lines)


def _mean_optional(values: List[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def figure7(
    config: Optional[ScenarioConfig] = None,
    fault_names: Sequence[str] = FAULT_NAMES,
    seeds: Sequence[int] = (7,),
    model: Optional[BlackBoxModel] = None,
    jobs: int = 1,
    telemetry: Optional[Telemetry] = None,
) -> Figure7Result:
    """Run every fault scenario and aggregate BA + latency per fault.

    Multiple ``seeds`` average over independent runs (the paper ran
    three iterations per configuration).  The fault x seed matrix fans
    out across ``jobs`` worker processes via the experiment runner; the
    per-fault aggregation is identical either way because workers return
    the exact result documents a serial run produces.
    """
    if config is None:
        config = ScenarioConfig()
    if model is None:
        model = shared_model(config)
    tasks = []
    for fault_name in fault_names:
        if fault_name not in FAULT_CATALOG:
            raise KeyError(f"unknown fault {fault_name!r}")
        for seed in seeds:
            run_config = ScenarioConfig(
                **{**config.__dict__, "fault_name": fault_name, "seed": seed}
            )
            tasks.append(ExperimentTask(f"{fault_name}/seed{seed}", run_config))
    report = run_tasks(tasks, jobs=jobs, model=model, telemetry=telemetry)
    by_fault: dict = {}
    for task_result in report.results:
        by_fault.setdefault(task_result.task.config.fault_name, []).append(
            task_result.load()
        )
    rows = []
    for fault_name in fault_names:
        results = by_fault[fault_name]
        rows.append(
            Figure7Row(
                fault_name=fault_name,
                ba_blackbox=sum(r.counts_bb.balanced_accuracy for r in results)
                / len(results),
                ba_whitebox=sum(r.counts_wb.balanced_accuracy for r in results)
                / len(results),
                ba_combined=sum(r.counts_all.balanced_accuracy for r in results)
                / len(results),
                latency_blackbox=_mean_optional([r.latency_bb for r in results]),
                latency_whitebox=_mean_optional([r.latency_wb for r in results]),
                latency_combined=_mean_optional([r.latency_all for r in results]),
                runs=len(results),
            )
        )
    return Figure7Result(rows=rows, engine=report)
