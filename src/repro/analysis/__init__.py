"""Analysis algorithms: scaling, clustering, peer comparison, scoring.

The math under the ASDF analysis modules, importable on its own for
offline use (the paper's "offline analyses" goal): the black-box
pipeline's log-scaling, k-means/1-NN state classification and
L1-to-median comparison; the white-box mean/median comparison with the
``max(1, k*sigma_median)`` threshold; and the evaluation metrics
(false-positive rate, balanced accuracy, fingerpointing latency).
"""

from .kmeans import KMeansModel, assign_nearest, fit_kmeans
from .metrics import (
    Alarm,
    ConfusionCounts,
    GroundTruth,
    WindowDecision,
    alarms_by_node,
    fingerpointing_latency,
    score_decisions,
)
from .peer import (
    WhiteboxVerdict,
    state_vector_l1_deviation,
    whitebox_anomalies,
    whitebox_deviations,
    whitebox_thresholds,
)
from .scaling import MIN_SIGMA, LogScaler

__all__ = [
    "Alarm",
    "ConfusionCounts",
    "GroundTruth",
    "KMeansModel",
    "LogScaler",
    "MIN_SIGMA",
    "WhiteboxVerdict",
    "WindowDecision",
    "alarms_by_node",
    "assign_nearest",
    "fingerpointing_latency",
    "fit_kmeans",
    "score_decisions",
    "state_vector_l1_deviation",
    "whitebox_anomalies",
    "whitebox_deviations",
    "whitebox_thresholds",
]
