"""Scenario-level parity, pinned.

Until the struct-of-arrays fleet and ``knnfleet`` became the pipeline, a
whole scenario could be run twice (per-node simulator + per-node ``knn``
vs fleet + ``knnfleet``) and compared field for field.  The digests
below were taken at the last commit that could (c8a8e9c) from its
*scalar + per-node knn* run -- ``ScenarioConfig(engine="scalar",
fleet_knn=False)`` with the ``shared_model`` of the same config trained
for 120 s -- as ``sha256(repr(_scenario_key(result)))``; its
``engine="vec", fleet_knn=True`` run gave the same two digests.  The one
remaining path must keep reproducing them.  Tick-level parity stays live
in ``tests/sim/test_vec.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import ScenarioConfig, run_scenario, shared_model

PINNED = {
    (6, 300.0): "6dcf26488cfa2ebdcec76e6cf9ee0792a2f03539e1280fcddff1de26a488f99c",
    (50, 420.0): "1fbe1d3aa7928318f47702a05a70dabccb83554a2bd25dd33e637ac44b86da76",
}


def _scenario_key(result):
    """The comparable essence of a scenario run, channel bytes included."""

    def decisions(items):
        return [
            (d.node, d.window_start, d.window_end, d.alarmed) for d in items
        ]

    return [
        (
            "alarms",
            [(a.time, a.node, a.source, a.detail) for a in result.alarms_all],
        ),
        ("decisions_bb", decisions(result.decisions_bb)),
        ("decisions_wb", decisions(result.decisions_wb)),
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


def scenario_digest(num_slaves, duration_s, seed=31):
    config = ScenarioConfig(
        num_slaves=num_slaves,
        duration_s=duration_s,
        seed=seed,
        fault_name="CPUHog",
        inject_time=duration_s / 3.0,
    )
    model = shared_model(config, training_duration_s=120.0)
    result = run_scenario(config, model=model)
    return hashlib.sha256(repr(_scenario_key(result)).encode()).hexdigest()


class TestScenarioParity:
    """Alarms with detail, decisions, scoreboard counts, jobs completed
    and the analysis channels' bytes equal the parent's scalar run."""

    def test_small_fleet(self):
        assert scenario_digest(6, 300.0) == PINNED[6, 300.0]

    @pytest.mark.slow
    def test_n50(self):
        assert scenario_digest(50, 420.0) == PINNED[50, 420.0]
