"""Shared helpers for the diagnosis-observatory tests."""

from repro.core import FptCore, Module, Origin, ParamSpec, RunReason, SimClock
from repro.modules import standard_registry


class ScriptedSource(Module):
    """Emits a scripted sequence of values once per second.

    Mirrors the module-test helper of the same name (the test trees are
    separate top-level packages, so it cannot be imported from here).
    """

    type_name = "scripted"
    params = (ParamSpec("node", "str", default=""),)
    output_names = ("value",)

    def init(self) -> None:
        node = self.ctx.param_str("node")
        self.out = self.ctx.create_output(
            "value", Origin(node=node, source="scripted")
        )
        self.values = list(self.ctx.service("script")[self.ctx.instance_id])
        self.index = 0
        self.ctx.schedule_every(1.0)

    def run(self, reason: RunReason) -> None:
        if self.index < len(self.values):
            value = self.values[self.index]
            if value is not None:
                self.out.write(value, self.ctx.clock.now())
        self.index += 1


def build_core(config_text: str, services: dict, telemetry=None) -> FptCore:
    registry = standard_registry()
    registry.register(ScriptedSource)
    return FptCore.from_config(
        config_text, registry, SimClock(), services=services,
        telemetry=telemetry,
    )


#: scripted source -> threshold -> union -> print: the smallest pipeline
#: that exercises the alarm records, the scorer and the via-chain walk.
SCORED_PIPELINE_CONFIG = """
[scripted]
id = src
node = slave01

[threshold_alarm]
id = thr
input[m] = src.value
bound = 5.0
consecutive = 2

[alarm_union]
id = union
input[a] = thr.alarms

[print]
id = board
input[a] = union.alarms
"""

#: A script with two violation episodes (alarms at t=3, 4 and 7).
ALARM_SCRIPT = [1, 2, 9, 9, 9, 1, 9, 9]
