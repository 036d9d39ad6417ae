"""The seeded recording whose files ``golden/`` holds.

``golden/{samples.jsonl,incident-0001.json,incident-0002.json,
manifest.json,outputs.json}`` are what :func:`record` left behind at the
parent of PR 22 (one ``json.dumps`` + ``encode_value`` per non-array row,
a timestamp formatted per record, an 8 KiB file buffer).  To write them
again -- only when the archive format changes on purpose::

    PYTHONPATH=src python tests/flightrec/parity_scenario.py tests/flightrec/golden
"""

import sys

import numpy as np

from repro.core import FptCore, SimClock
from repro.flightrec import FlightRecorder
from repro.modules import standard_registry

try:
    from .helpers import ALARM_PIPELINE_CONFIG, ScriptedSource
except ImportError:  # run as a script, to write the golden files
    from helpers import ALARM_PIPELINE_CONFIG, ScriptedSource

CONFIG = ALARM_PIPELINE_CONFIG + """
[scripted]
id = mix
node = slave02
"""

#: Two alarm episodes far enough apart for two bundles (cooldown 4 s).
SRC_SCRIPT = [1, 2, 9, 9, 9, 1, 1, 1, 9, 9, 9, 2]

#: One of everything the standard modules put on a channel.
MIX_SCRIPT = [
    np.array([0.1, np.nan, -0.0], dtype=np.float32),
    np.arange(12.0).reshape(3, 4) / 7.0,
    np.int64(7),
    np.float64(2.5),
    7,
    -3,
    True,
    2.5,
    "text",
    [1, 2.0, "x"],
    (np.array([1, 2], dtype=np.int64), None),
    {"nodes": ["a", "b"], "deviations": np.array([0.5, 2.0])},
]


class DriftingClock(SimClock):
    """A wall clock's habit, made repeatable: once ``drift`` is set, time
    moves between any two reads, so a sample's ``at`` is not its ``t``."""

    drift = 0.0

    def now(self) -> float:
        self._now += self.drift
        return self._now


def record(directory: str) -> FlightRecorder:
    """Record the scenario into ``directory``; returns the closed recorder."""
    registry = standard_registry()
    registry.register(ScriptedSource)
    clock = DriftingClock()
    core = FptCore.from_config(
        CONFIG, registry, clock,
        services={"script": {"src": SRC_SCRIPT, "mix": MIX_SCRIPT}},
    )
    recorder = FlightRecorder(
        max_samples=6, window_s=5.0, archive_dir=directory,
        bundle_window_s=4.0, incident_cooldown_s=4.0,
    )
    core.set_flight_recorder(recorder)
    recorder.note_manifest(config_text=CONFIG)
    core.run_until(5.0)            # at == t: the simulated clock
    clock.drift = 2.0 ** -7        # at != t from here on
    core.run_until(12.0)
    mix = core.dag.contexts["mix"].outputs["value"]
    for timestamp in (3, float("inf"), float("-inf"), float("nan"),
                      np.float64(1.5), -0.0, 0.0):
        mix.write(1, timestamp)
    recorder.close()
    core.close()
    return recorder


if __name__ == "__main__":
    record(sys.argv[1])
