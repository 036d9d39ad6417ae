"""Active mitigation module (paper section 5).

"We also plan to equip ASDF with the ability to actively mitigate the
consequences of a performance problem once it is detected."

The ``mitigate`` module closes the loop: every alarm that reaches it is
turned into an action against the monitored system, through a
*mitigation controller* service.  The bundled controller for the Hadoop
substrate blacklists the fingerpointed slave at the JobTracker, so new
tasks route around the sick node while it keeps serving HDFS blocks --
Hadoop's own operational remedy for a misbehaving TaskTracker.

A ``min_alarms`` knob avoids acting on a single spurious alarm, and each
node is acted on at most once.

Configuration::

    [mitigate]
    id = responder
    input[a] = combined.alarms
    controller = mitigation_controller
    min_alarms = 2
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.metrics import Alarm
from ..core import Module, ParamSpec, RunReason, TriggerSpec


class MitigationModule(Module):
    type_name = "mitigate"
    params = (
        ParamSpec("controller", "str", default="mitigation_controller"),
        ParamSpec("min_alarms", "int", default="2", min_value=1),
    )
    requires_inputs = True
    output_names = ("actions",)
    trigger = TriggerSpec.fixed(1)
    sink = True

    def init(self) -> None:
        ctx = self.ctx
        self.controller = ctx.service(ctx.param_str("controller"))
        self.min_alarms = ctx.param_int("min_alarms")
        self._alarm_counts: Dict[str, int] = {}
        #: (time, node) pairs of actions actually taken.
        self.actions: List[tuple] = []
        self.actions_out = ctx.create_output("actions")
        ctx.trigger_after_updates(1)

    def run(self, reason: RunReason) -> None:
        for group in self.ctx.inputs.values():
            for connection in group:
                for sample in connection.pop_all():
                    if isinstance(sample.value, Alarm):
                        self._handle(sample.value)

    def _handle(self, alarm: Alarm) -> None:
        node = alarm.node
        count = self._alarm_counts.get(node, 0) + 1
        self._alarm_counts[node] = count
        if count != self.min_alarms:
            return  # below the action bar, or already acted on
        now = self.ctx.clock.now()
        self.controller.mitigate(node, now)
        self.actions.append((now, node))
        self.actions_out.write({"time": now, "node": node}, now)
