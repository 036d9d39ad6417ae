"""The seeded observed run whose Prometheus text ``golden/`` holds.

``golden/observed10_400s.prom`` is :func:`stable_text` of this run as the
parent of PR 22 exported it (every count pushed on the hot path).  To
write it again -- only when a family is added or renamed on purpose::

    PYTHONPATH=src python tests/telemetry/observed_run.py \
        tests/telemetry/golden/observed10_400s.prom

``golden/observed10_400s.trace.json`` (size and SHA-256 of the Chrome
and JSONL trace exports) and ``golden/observed10_400s.head.jsonl`` (the
first lines of the JSONL one, for a readable diff) are
:func:`trace_golden` of the same run under :func:`fixed_perf_counter`,
as the parent of PR 23 exported it (one ``TraceEvent`` tuple and one
args dict per event).  A second argument writes those two, next to it::

    PYTHONPATH=src python tests/telemetry/observed_run.py \
        /tmp/observed.prom tests/telemetry/golden/observed10_400s

The ``.prom`` and ``.trace.json`` files were last written when the
``scoreboard`` sink was removed (the ``print`` sinks feed the
observatory): the text is the old file without its
``fpt_instance_runs_total{instance="scoreboard",...}`` line, and the
trace is the old one without the scoreboard's 12 run events (their
timestamps shift under :func:`fixed_perf_counter`; the head does not
change).  The ``.prom`` file leaves out the rows of outputs never
written, as the parent's did.
"""

import contextlib
import hashlib
import itertools
import json
import sys
import time

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


@contextlib.contextmanager
def fixed_perf_counter(step_s: float = 1.0 / 1024):
    """``time.perf_counter`` as a counter: each read is one step later.

    The run is single-threaded and reads the clock a fixed number of
    times, so every trace timestamp repeats exactly.
    """
    real = time.perf_counter
    ticks = itertools.count()
    time.perf_counter = lambda: 1000.0 + next(ticks) * step_s
    try:
        yield
    finally:
        time.perf_counter = real


#: JSONL lines kept as text beside the digests.
HEAD_LINES = 40


def trace_golden(tracer) -> tuple:
    """``(digests, head)`` of a tracer's two exports, its process
    identity pinned (pid, name and wall epoch are the host's)."""
    tracer.pid, tracer.process_name, tracer.wall_epoch = 1, "observed", 0.0
    chrome, jsonl = tracer.render_chrome_trace(), tracer.render_jsonl()
    digests = {
        "events": len(tracer.events),
        "dropped": tracer.dropped,
        **{
            name: {"bytes": len(text.encode()),
                   "sha256": hashlib.sha256(text.encode()).hexdigest()}
            for name, text in (("chrome", chrome), ("jsonl", jsonl))
        },
    }
    return digests, "".join(jsonl.splitlines(keepends=True)[:HEAD_LINES])


def stable_text(prometheus_text: str) -> str:
    """The exposition without the families named in ``UNSTABLE``."""
    return "".join(
        line + "\n" for line in prometheus_text.splitlines()
        if not any(marker in line for marker in UNSTABLE)
    )


if __name__ == "__main__":
    with fixed_perf_counter():
        _result, _observatory, _recorder = observed_run()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(stable_text(
            _observatory.telemetry.metrics.render_prometheus()
        ))
    if len(sys.argv) > 2:
        _digests, _head = trace_golden(_observatory.telemetry.tracer)
        with open(sys.argv[2] + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump(_digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(sys.argv[2] + ".head.jsonl", "w", encoding="utf-8") as fh:
            fh.write(_head)
    _result.handles.core.close()
