"""The ``scoreboard`` sink: routes alarms and decisions into an Observatory.

An ordinary fpt-core sink, wired like ``print`` but feeding the
diagnosis observatory (:mod:`repro.obsv`) instead of a terminal: every
delivered :class:`~repro.analysis.metrics.Alarm` is scored online
against the registered ground-truth windows and walked through the
latency tracer; every delivered
:class:`~repro.analysis.metrics.WindowDecision` batch updates the
rolling per-(fault, detector) confusion counts.

The observatory is looked up lazily from the ``observatory`` service
(name configurable via the ``service`` parameter) on every run, exactly
like ``print`` resolves the flight recorder -- so the module tolerates
an observatory attached after construction, and costs one dict lookup
per run when none is registered at all.
"""

from __future__ import annotations

from typing import List

from ..analysis.metrics import Alarm, WindowDecision
from ..core import Module, ParamSpec, RunReason, TriggerSpec

#: Default service name the sink resolves its observatory from.
DEFAULT_OBSERVATORY_SERVICE = "observatory"


class ScoreboardModule(Module):
    """Online scoring sink: alarms and decisions -> the observatory."""

    type_name = "scoreboard"
    params = (ParamSpec("service", "str", default=DEFAULT_OBSERVATORY_SERVICE),)
    requires_inputs = True
    output_names = ()
    trigger = TriggerSpec.fixed(1)
    sink = True

    def init(self) -> None:
        ctx = self.ctx
        if not ctx.inputs:
            from ..core.errors import ConfigError

            raise ConfigError(
                f"scoreboard '{ctx.instance_id}': no inputs wired"
            )
        self.service_name = ctx.param_str("service")
        self.alarms_routed = 0
        self.decision_batches_routed = 0
        ctx.trigger_after_updates(1)

    def run(self, reason: RunReason) -> None:
        observatory = self.ctx.services.get(self.service_name)
        now = self.ctx.clock.now()
        for group in self.ctx.inputs.values():
            for connection in group:
                upstream = connection.output.full_name
                for sample in connection.pop_all():
                    value = sample.value
                    if isinstance(value, Alarm):
                        self.alarms_routed += 1
                        if observatory is not None:
                            delivered = value.via + (upstream,)
                            observatory.observe_alarm(
                                value, delivered, sim_now=now
                            )
                    elif isinstance(value, list) and _is_decisions(value):
                        self.decision_batches_routed += 1
                        if observatory is not None:
                            observatory.observe_decisions(upstream, value)


def _is_decisions(value: List) -> bool:
    return all(isinstance(item, WindowDecision) for item in value)
