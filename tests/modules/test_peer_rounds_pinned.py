"""Every round the two analyses release, pinned across the fleet ring.

The digests below were taken **at the parent commit** (one ``TimedWindow``
per node, a ``WindowAligner``, node-major ``np.stack(...).mean(axis=1)``)
over every ``analysis_bb`` / ``analysis_wb`` ``stats``, ``decisions`` and
``alarms`` record of two recorded runs: sliding windows (slide 1,
unbatched ``ibuffer``) and the default tumbling deployment (``ibuffer``
batches of 5).  The time-major :class:`FleetWindow` must reproduce every
mean, standard deviation, histogram, deviation, window bound, decision
and alarm of both, and the recording must replay with every sink MATCH.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import ScenarioConfig, run_scenario, train_blackbox_model
from repro.flightrec import FlightRecorder, ReplayArchive, run_replay
from repro.hadoop import ClusterConfig

ARRAYS = ("means", "stds", "histograms", "deviations")

SLIDING = dict(
    num_slaves=8, duration_s=420.0, seed=5, fault_name="CPUHog",
    inject_time=120.0, window=60, slide=1, ibuffer_size=1,
)
TUMBLING = dict(
    num_slaves=8, duration_s=540.0, seed=5, fault_name="CPUHog",
    inject_time=120.0,
)

#: (rounds of analysis_bb, digest) at the parent commit.
PINNED = {
    "sliding": (
        361, "4feb23be9cbcefbffd05e8517e57cb85ec2fcfbe94ed3903b1e8d3d4a8f0fbea",
    ),
    "tumbling": (
        9, "d779a3844d2fbbfccb4008be296d0732ec76783a596360da75c89e3c9c98d19c",
    ),
}


def rounds_digest(archive):
    """(analysis_bb rounds, sha256 over every analysis record)."""
    digest = hashlib.sha256()
    rounds = 0
    for record in archive.records:
        owner, _, name = record.output.partition(".")
        if owner not in ("analysis_bb", "analysis_wb"):
            continue
        digest.update(
            repr((record.output, record.at, record.timestamp)).encode()
        )
        value = record.value
        if name == "stats":
            rounds += owner == "analysis_bb"
            for key in sorted(value):
                digest.update(key.encode())
                if key in ARRAYS:
                    digest.update(np.asarray(value[key], dtype=float).tobytes())
                else:
                    digest.update(repr(value[key]).encode())
        elif name == "decisions":
            digest.update(repr([
                (d.node, d.window_start, d.window_end, d.alarmed)
                for d in value
            ]).encode())
        else:
            digest.update(
                repr((value.time, value.node, value.source, value.detail)).encode()
            )
    return rounds, digest.hexdigest()


@pytest.fixture(scope="module")
def model():
    return train_blackbox_model(
        cluster_config=ClusterConfig(num_slaves=8, seed=1005),
        duration_s=150.0, num_states=6, seed=5,
    )


@pytest.mark.parametrize("name,scenario", [
    ("sliding", SLIDING), ("tumbling", TUMBLING),
])
def test_every_round_equals_the_parent_commit(name, scenario, model, tmp_path):
    recorder = FlightRecorder(archive_dir=str(tmp_path), max_incidents=0)
    try:
        result = run_scenario(
            ScenarioConfig(**scenario), model=model, recorder=recorder
        )
    finally:
        recorder.close()
    assert result.alarms_all  # the culprit is fingered: alarms are covered
    archive = ReplayArchive.load(str(tmp_path))
    assert rounds_digest(archive) == PINNED[name]

    replayed = run_replay(
        archive, archive.manifest["config_text"], services={"bb_model": model}
    )
    try:
        assert replayed.expected["CombinedAlarm"] == result.alarms_all
        assert replayed.matches == {
            "BlackBoxAlarm": True, "WhiteBoxAlarm": True, "CombinedAlarm": True,
        }
    finally:
        replayed.core.close()
