"""Offline black-box model training (paper section 4.5).

"The pre-determined set of centroid vectors are generated by using
offline k-Means clustering using fault-free training data" -- this
module runs a fault-free GridMix workload, collects every slave's
per-second 64-metric vectors through the same ``sadc`` path the online
system uses, and fits the :class:`LogScaler` plus k-means centroids the
``knn`` module classifies against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..analysis.kmeans import fit_kmeans
from ..analysis.scaling import LogScaler
from ..hadoop.cluster import ClusterConfig, HadoopCluster
from ..workloads.gridmix import GridMixConfig, generate_workload

#: Number of workload states (k-means centroids) for 1-NN classification.
DEFAULT_NUM_STATES = 10

#: Longest fault-free run a scenario's model trains on, simulated seconds.
TRAINING_DURATION_S = 300.0


@dataclass
class BlackBoxModel:
    """Everything the online black-box pipeline needs from training."""

    centroids: np.ndarray  # (num_states, 64), in scaled-log space
    sigma: np.ndarray      # (64,), log1p standard deviations

    @property
    def num_states(self) -> int:
        return int(self.centroids.shape[0])


#: On-disk format tag for :func:`save_model` / :func:`load_model`.
MODEL_FORMAT = "asdf-bb-model/1"


def model_to_payload(model: BlackBoxModel) -> dict:
    """The model as a plain-data JSON document (lists, no numpy).

    This is the wire format of the experiment runner's model cache: the
    parent trains once, ships this payload to every worker, and the
    workers rebuild with :func:`model_from_payload` -- ``tolist`` /
    ``asarray`` round-trips IEEE doubles exactly, so a shipped model
    classifies bit-identically to the parent's.
    """
    return {
        "format": MODEL_FORMAT,
        "centroids": model.centroids.tolist(),
        "sigma": model.sigma.tolist(),
    }


def model_from_payload(payload: dict) -> BlackBoxModel:
    """Rebuild a model from :func:`model_to_payload` output."""
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(
            f"not a saved black-box model (format={payload.get('format')!r})"
        )
    return BlackBoxModel(
        centroids=np.asarray(payload["centroids"], dtype=float),
        sigma=np.asarray(payload["sigma"], dtype=float),
    )


def save_model(model: BlackBoxModel, path: Union[str, Path]) -> Path:
    """Write a trained model to ``path`` as JSON.

    Recorded runs save their model alongside the flight archive so a
    later ``repro replay`` can rebuild the ``bb_model`` service without
    retraining.
    """
    path = Path(path)
    path.write_text(json.dumps(model_to_payload(model)))
    return path


def load_model(path: Union[str, Path]) -> BlackBoxModel:
    """Reload a model saved by :func:`save_model`."""
    return model_from_payload(json.loads(Path(path).read_text()))


def collect_training_matrix(
    cluster_config: ClusterConfig,
    workload_config: GridMixConfig,
    duration_s: float,
) -> np.ndarray:
    """Run a fault-free cluster and stack all slaves' sadc vectors."""
    cluster = HadoopCluster(cluster_config)
    for spec in generate_workload(workload_config).jobs:
        cluster.schedule_job(spec)
    samplers = [cluster.procfs(node).sampler() for node in cluster.slave_names]
    rows: List[np.ndarray] = []

    def on_tick(c: HadoopCluster) -> None:
        for sampler in samplers:
            row = sampler.collect_vector(c.time)
            if row is not None:
                rows.append(row)

    cluster.run_until(duration_s, on_tick=on_tick)
    return np.array(rows)


def training_inputs(config, training_duration_s: Optional[float] = None) -> dict:
    """The training recipe for a scenario: :func:`train_blackbox_model`
    keyword arguments for a :class:`~.scenario.ScenarioConfig`.

    A fault-free cluster of the scenario's size on the shifted seed
    ``seed + 1000``, ``min(TRAINING_DURATION_S, duration_s)`` seconds of
    it unless ``training_duration_s`` is given, the scenario's state
    count, and k-means seeded with the scenario seed.
    """
    if training_duration_s is None:
        training_duration_s = min(TRAINING_DURATION_S, config.duration_s)
    return {
        "cluster_config": ClusterConfig(
            num_slaves=config.num_slaves, seed=config.seed + 1000
        ),
        "duration_s": training_duration_s,
        "num_states": config.num_states,
        "seed": config.seed,
    }


def train_blackbox_model(
    cluster_config: Optional[ClusterConfig] = None,
    workload_config: Optional[GridMixConfig] = None,
    duration_s: float = 300.0,
    num_states: int = DEFAULT_NUM_STATES,
    seed: int = 0,
) -> BlackBoxModel:
    """Full offline training pass on fault-free data."""
    if cluster_config is None:
        cluster_config = ClusterConfig()
    if workload_config is None:
        workload_config = GridMixConfig(
            duration_s=duration_s, seed=cluster_config.seed + 100
        )
    matrix = collect_training_matrix(cluster_config, workload_config, duration_s)
    scaler = LogScaler.fit(matrix)
    scaled = scaler.transform(matrix)
    model = fit_kmeans(scaled, k=num_states, seed=seed)
    return BlackBoxModel(centroids=model.centroids, sigma=scaler.sigma)
