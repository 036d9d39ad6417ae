"""The diagnosis observatory: latency tracing, alarm records, one scorer.

``repro.obsv`` layers its observability surfaces over a running
fpt-core, all opt-in and all built on the existing ``repro.telemetry``
primitives:

* :mod:`~repro.obsv.latency` -- sample->alarm latency traced through
  channel-write ingest watermarks and the ``Alarm.via`` provenance chain;
* :mod:`~repro.obsv.observatory` -- one record per alarm a ``print``
  sink delivered, and the run scored on read against its one ground
  truth (``/scoreboard``, ``BENCH_scoreboard.json``);
* :mod:`~repro.obsv.ops` / :mod:`~repro.obsv.top` -- the live HTTP ops
  surface and the ANSI terminal dashboard.

:class:`~repro.obsv.observatory.Observatory` bundles them and registers
itself as the core's ``"observatory"`` service, which every ``print``
sink (:mod:`repro.modules.alarms`) hands its alarms and decisions to.
"""

from .latency import AlarmLatencyRecord, LatencyTracer, StageLatency, percentile
from .observatory import OBSERVATORY_SERVICE, SCOREBOARD_FORMAT, Observatory
from .ops import OpsServer
from .top import CLEAR_SCREEN, render_top

__all__ = [
    "AlarmLatencyRecord",
    "CLEAR_SCREEN",
    "LatencyTracer",
    "OBSERVATORY_SERVICE",
    "Observatory",
    "OpsServer",
    "SCOREBOARD_FORMAT",
    "StageLatency",
    "percentile",
    "render_top",
]
