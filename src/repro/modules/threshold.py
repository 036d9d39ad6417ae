"""The ``threshold_alarm`` rule-based analysis module.

The frameworks ASDF positions itself against (Table 1: Ganglia, Nagios,
Tivoli) are mostly *rule-based*: alert when a metric crosses a bound.
That style of check is a one-module plug-in here, useful both on its own
(oversubscribed-resource alerts) and as a baseline next to the peer
comparison analyses.

Configuration::

    [threshold_alarm]
    id = cpu_rule
    input[m] = sadc.slave01.cpu_user_pct
    bound = 90.0
    direction = above       ; or "below"
    consecutive = 3         ; samples in a row before alarming

The input's origin attributes the alarm to a node.  Vector-valued
samples are reduced with ``reduce = max|min|mean`` first.
"""

from __future__ import annotations

import numpy as np

from ..analysis.metrics import Alarm
from ..core import InputPortSpec, Module, ParamSpec, RunReason, TriggerSpec
from ._window_sync import ConsecutiveCounter

_REDUCERS = {"max": np.max, "min": np.min, "mean": np.mean}


class ThresholdAlarmModule(Module):
    type_name = "threshold_alarm"
    params = (
        ParamSpec("bound", "float", required=True),
        ParamSpec("direction", "str", default="above", choices=("above", "below")),
        ParamSpec("consecutive", "int", default="1", min_value=1),
        ParamSpec("reduce", "str", default="max", choices=tuple(_REDUCERS)),
    )
    ports = (InputPortSpec("m", max_connections=1),)
    output_names = ("alarms",)
    trigger = TriggerSpec.fixed(1)

    def init(self) -> None:
        ctx = self.ctx
        self.connection = ctx.input("m").single()
        origin = self.connection.origin
        self.node = origin.node if origin is not None else ""
        self.metric = origin.describe() if origin is not None else "<input>"
        self.bound = ctx.param_float("bound")
        self.direction = ctx.param_str("direction")
        self.consecutive = ctx.param_int("consecutive")
        self._reduce = _REDUCERS[ctx.param_str("reduce")]
        self._counter = ConsecutiveCounter((self.node,), self.consecutive)
        self.alarms_out = ctx.create_output("alarms")
        self.samples_checked = 0
        ctx.trigger_after_updates(1)

    def _violates(self, value: float) -> bool:
        if self.direction == "above":
            return value > self.bound
        return value < self.bound

    def run(self, reason: RunReason) -> None:
        for sample in self.connection.pop_all():
            value = float(self._reduce(np.atleast_1d(np.asarray(sample.value, dtype=float))))
            self.samples_checked += 1
            if self._counter.update({self.node: self._violates(value)}):
                self.alarms_out.write(
                    Alarm(
                        time=sample.timestamp,
                        node=self.node,
                        source="rule",
                        detail=(
                            f"{self.metric} {value:.2f} "
                            f"{self.direction} {self.bound:.2f} "
                            f"for {self._counter.streak(self.node)} samples"
                        ),
                    ),
                    sample.timestamp,
                )
