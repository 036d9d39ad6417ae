"""Offline threshold sweeps over captured analysis statistics (Figure 6).

The paper tuned detection thresholds by replaying problem-free traces at
different thresholds and measuring false-positive rates.  Re-running the
cluster once per threshold would be wasteful; instead a fault-free run's
raw per-round statistics (the analysis modules' ``stats`` outputs) are
replayed here against any threshold, including the consecutive-window
confidence logic, producing the Figure 6(a)/(b) curves.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.peer import whitebox_anomalies
from ..modules._window_sync import ConsecutiveCounter


def _fp_rate_from_flags(flag_rounds: List[Dict[str, bool]], consecutive: int) -> float:
    """Alarmed fraction of node-rounds after the confidence filter, the
    online detectors' :class:`ConsecutiveCounter`.

    All rounds are assumed problem-free, so every alarmed node-window is
    a false positive.
    """
    counter = ConsecutiveCounter((), consecutive)
    alarmed = total = 0
    for flags in flag_rounds:
        total += len(flags)
        alarmed += len(counter.update(flags))
    return alarmed / total if total else 0.0


def blackbox_fp_sweep(
    stats_rounds: Sequence[dict],
    thresholds: Sequence[float],
    consecutive: int = 3,
) -> List[Tuple[float, float]]:
    """False-positive rate (%) vs threshold for the black-box detector.

    ``stats_rounds`` are the ``analysis_bb`` stats dicts of a fault-free
    run: each has ``nodes`` and per-node L1 ``deviations``.
    """
    result = []
    for threshold in thresholds:
        flag_rounds = [
            {
                node: deviation > threshold
                for node, deviation in zip(stats["nodes"], stats["deviations"])
            }
            for stats in stats_rounds
        ]
        result.append(
            (float(threshold), 100.0 * _fp_rate_from_flags(flag_rounds, consecutive))
        )
    return result


def whitebox_fp_sweep(
    stats_rounds: Sequence[dict],
    ks: Sequence[float],
    consecutive: int = 2,
) -> List[Tuple[float, float]]:
    """False-positive rate (%) vs k for the white-box detector.

    ``stats_rounds`` are the ``analysis_wb`` stats dicts of a fault-free
    run: each has ``nodes`` plus per-node window ``means`` and ``stds``.
    """
    result = []
    for k in ks:
        flag_rounds = []
        for stats in stats_rounds:
            verdict = whitebox_anomalies(
                np.asarray(stats["means"]), np.asarray(stats["stds"]), float(k)
            )
            flag_rounds.append(
                {
                    node: bool(flag)
                    for node, flag in zip(stats["nodes"], verdict.anomalous_nodes)
                }
            )
        result.append(
            (float(k), 100.0 * _fp_rate_from_flags(flag_rounds, consecutive))
        )
    return result


def pick_knee(curve: Sequence[Tuple[float, float]], tolerance: float = 1.0) -> float:
    """Smallest parameter whose FP rate is within ``tolerance`` (pp) of
    the best achieved -- the "little further improvement" point the
    paper used to fix the operating threshold."""
    if not curve:
        raise ValueError("empty sweep curve")
    best = min(rate for _, rate in curve)
    for parameter, rate in curve:
        if rate <= best + tolerance:
            return parameter
    return curve[-1][0]
