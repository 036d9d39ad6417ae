"""Quickstart: build a custom online fingerpointing tool with fpt-core.

ASDF's core idea (paper section 3): encapsulate data sources and
analyses as *modules*, wire them with a configuration file, and the same
core becomes whatever diagnosis tool the wiring describes.  This example
writes two tiny custom modules -- a jittery latency probe and a
threshold detector -- registers them beside the standard library, and
runs the resulting DAG for five simulated minutes.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import SCHEDULE_PARAMS, FptCore, Module, Origin, ParamSpec, RunReason, SimClock
from repro.modules import standard_registry


class LatencyProbe(Module):
    """A data-collection module: samples a noisy service latency.

    After t=180s the simulated service degrades, so the detector
    downstream should start alarming around then.
    """

    type_name = "latency_probe"
    params = (ParamSpec("seed", "int", default="0"),) + SCHEDULE_PARAMS
    output_names = ("latency_ms",)
    ports = ()

    def init(self) -> None:
        self.out = self.ctx.create_output(
            "latency_ms", Origin(node="svc01", source="probe", metric="latency")
        )
        self.rng = np.random.default_rng(self.ctx.param_int("seed"))
        self.ctx.schedule_every(self.ctx.param_float("interval"))

    def run(self, reason: RunReason) -> None:
        now = self.ctx.clock.now()
        base = 20.0 if now < 180.0 else 95.0
        self.out.write(base + self.rng.gamma(2.0, 3.0), now)


class ThresholdDetector(Module):
    """An analysis module: alarm when the windowed mean crosses a bound."""

    type_name = "threshold_detector"
    params = (ParamSpec("bound", "float", required=True),)
    output_names = ()

    def init(self) -> None:
        self.conn = self.ctx.input("input").single()
        self.bound = self.ctx.param_float("bound")
        self.alarms = []
        self.ctx.trigger_after_updates(1)

    def run(self, reason: RunReason) -> None:
        for sample in self.conn.pop_all():
            mean = float(np.asarray(sample.value).ravel()[0])
            if mean > self.bound:
                self.alarms.append((sample.timestamp, mean))
                print(f"ALARM t={sample.timestamp:5.0f}s  mean latency {mean:5.1f} ms")


CONFIG = """
# A three-vertex fingerpointing DAG (see the paper's Figure 3 for the
# same format at Hadoop scale).
[latency_probe]
id = probe
interval = 1.0
seed = 42

[mavgvec]
id = smoother
input[input] = probe.latency_ms
window = 30
slide = 10

[threshold_detector]
id = detector
input[input] = smoother.mean
bound = 60.0
"""


def main() -> None:
    registry = standard_registry()
    registry.register(LatencyProbe)
    registry.register(ThresholdDetector)

    core = FptCore.from_config(CONFIG, registry, SimClock())
    print("DAG:", " | ".join(core.instances))
    print("running 300 simulated seconds (service degrades at t=180)...\n")
    core.run_until(300.0)

    detector = core.instance("detector")
    first = detector.alarms[0][0] if detector.alarms else None
    print(f"\n{len(detector.alarms)} alarm windows; first at t={first}s")
    assert first is not None and first >= 180.0
    core.close()


if __name__ == "__main__":
    main()
