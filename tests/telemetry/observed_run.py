"""The seeded observed run whose Prometheus text ``golden/`` holds.

``golden/observed10_400s.prom`` is :func:`stable_text` of this run as the
parent of PR 22 exported it (every count pushed on the hot path).  To
write it again -- only when a family is added or renamed on purpose::

    PYTHONPATH=src python tests/telemetry/observed_run.py \
        tests/telemetry/golden/observed10_400s.prom
"""

import sys

from repro.experiments import ScenarioConfig, run_scenario
from repro.flightrec import FlightRecorder
from repro.obsv import Observatory
from repro.telemetry import Telemetry

#: Wall-clock histograms, and the one gauge that is an interpreter-
#: dependent estimate (``sys.getsizeof``): not comparable between runs.
UNSTABLE = ("_seconds", "fpt_flightrec_buffered_bytes")


def observed_run():
    """10 slaves x 400 s, CPUHog at 100 s, observatory + recorder on.

    Returns ``(result, observatory, recorder)``; the caller closes
    ``result.handles.core``.
    """
    observatory = Observatory(Telemetry(trace=True))
    recorder = FlightRecorder()
    result = run_scenario(
        ScenarioConfig(num_slaves=10, duration_s=400.0, seed=3,
                       fault_name="CPUHog", inject_time=100.0),
        keep_handles=True, observatory=observatory, recorder=recorder,
    )
    return result, observatory, recorder


def stable_text(prometheus_text: str) -> str:
    """The exposition without the families named in ``UNSTABLE``."""
    return "".join(
        line + "\n" for line in prometheus_text.splitlines()
        if not any(marker in line for marker in UNSTABLE)
    )


if __name__ == "__main__":
    _result, _observatory, _recorder = observed_run()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(stable_text(
            _observatory.telemetry.metrics.render_prometheus()
        ))
    _result.handles.core.close()
