"""Alarm sinks and combinators.

* ``print`` -- the terminal sink from the paper's Figures 3/4
  (``DataNodeAlarm``/``BlackBoxAlarm``): records, and optionally prints,
  everything that reaches it.
* ``alarm_union`` -- merges several alarm streams into one, implementing
  the paper's *combined* black-box + white-box fingerpointer ("combining
  the outputs of the white-box and black-box analysis yielded a modest
  improvement").  Forwarded alarms keep their provenance: the union
  appends the delivering upstream output to the alarm's ``via`` chain,
  so sinks, the alarm records and incident bundles name the analysis
  that actually raised the alarm, not the union.

When a :class:`~repro.obsv.Observatory` is attached to the core, a
``print`` sink hands it every alarm it receives (with the chain of
outputs that delivered it and the sink's own id) and every batch of
window decisions; the observatory keeps one record per alarm and scores
the run from what it was handed.  When a
:class:`~repro.flightrec.FlightRecorder` is attached, each alarm
additionally freezes an *incident bundle* (the recorded channel windows,
peer comparisons and config on the alarm's DAG path).

Non-quiet alarm echo goes through the ``repro.alarms`` logger (stdout by
default), so recorded runs can capture or redirect alarm text with
standard :mod:`logging` handlers.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import replace
from typing import List

from ..analysis.metrics import Alarm, WindowDecision
from ..core import Module, ParamSpec, RunReason, Sample, TriggerSpec

#: Logger carrying non-quiet ``print``-sink echo lines.
ALARM_LOGGER_NAME = "repro.alarms"


class _StdoutHandler(logging.StreamHandler):
    """StreamHandler that resolves ``sys.stdout`` at emit time.

    Looking the stream up lazily keeps the historical stdout behaviour
    under test harnesses that swap ``sys.stdout`` (pytest's capsys).
    """

    def emit(self, record: logging.LogRecord) -> None:
        self.stream = sys.stdout
        super().emit(record)


def alarm_logger() -> logging.Logger:
    """The ``repro.alarms`` logger, defaulting to bare lines on stdout.

    The default handler is only installed when no handler was configured
    first, so applications (and tests) can redirect alarm text by adding
    their own handler before the first alarm fires.
    """
    logger = logging.getLogger(ALARM_LOGGER_NAME)
    if not logger.handlers:
        handler = _StdoutHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        logger.propagate = False
    if logger.level == logging.NOTSET:
        logger.setLevel(logging.INFO)
    return logger


class PrintModule(Module):
    """Terminal sink: collect (and optionally echo) incoming samples."""

    type_name = "print"
    params = (
        ParamSpec("quiet", "bool", default="true"),
        ParamSpec("prefix", "str"),  # absent: the instance id
    )
    requires_inputs = True
    output_names = ()
    trigger = TriggerSpec.fixed(1)
    sink = True

    def init(self) -> None:
        ctx = self.ctx
        self.quiet = ctx.param_bool("quiet")
        prefix = ctx.param_str("prefix")
        self.prefix = ctx.instance_id if prefix is None else prefix
        self.received: List[Sample] = []
        ctx.trigger_after_updates(1)

    @property
    def alarms(self) -> List[Alarm]:
        """The Alarm-typed subset of everything received."""
        return [s.value for s in self.received if isinstance(s.value, Alarm)]

    def run(self, reason: RunReason) -> None:
        # Both installed by their attach() after core construction;
        # absent on plain cores, so each is one dict lookup per run.
        recorder = self.ctx.services.get("flight_recorder")
        observatory = self.ctx.services.get("observatory")
        logger = None if self.quiet else alarm_logger()
        for group in self.ctx.inputs.values():
            for connection in group:
                upstream = connection.output.full_name
                for sample in connection.pop_all():
                    self.received.append(sample)
                    value = sample.value
                    if isinstance(value, Alarm):
                        delivered = value.via + (upstream,)
                        if observatory is not None:
                            observatory.observe_alarm(
                                value, delivered, self.ctx.clock.now(),
                                self.instance_id,
                            )
                        if recorder is not None:
                            recorder.record_incident(
                                value, sink=self.instance_id, inputs=delivered,
                            )
                    elif observatory is not None and _is_decisions(value):
                        observatory.observe_decisions(upstream, value)
                    if logger is not None:
                        text = (
                            value.describe()
                            if isinstance(value, Alarm)
                            else repr(value)
                        )
                        logger.info("[%s] %s", self.prefix, text)


def _is_decisions(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(item, WindowDecision) for item in value
    )


class AlarmUnionModule(Module):
    """Forward alarms from any input onto one combined output."""

    type_name = "alarm_union"
    requires_inputs = True
    output_names = ("alarms",)
    trigger = TriggerSpec.fixed(1)

    def init(self) -> None:
        ctx = self.ctx
        self.out = ctx.create_output("alarms")
        self.forwarded = 0
        ctx.trigger_after_updates(1)

    def run(self, reason: RunReason) -> None:
        for group in self.ctx.inputs.values():
            for connection in group:
                upstream = connection.output.full_name
                for sample in connection.pop_all():
                    if isinstance(sample.value, Alarm):
                        alarm = sample.value
                        forwarded = replace(
                            alarm, via=alarm.via + (upstream,)
                        )
                        self.out.write(forwarded, sample.timestamp)
                        self.forwarded += 1
