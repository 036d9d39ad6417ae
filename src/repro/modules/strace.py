"""The ``strace`` data-collection module and its anomaly detector.

Implements the extension the paper sketches in section 5: "a strace
module that tracks all of the system calls made by a given process ...
to detect and diagnose anomalies by building a probabilistic model of
the order and timing of system calls and checking for patterns that
correspond to problems."

Two modules:

* ``strace`` -- polls a node's ``strace_rpcd`` once per interval and
  emits the per-second syscall category-count vector.
* ``syscall_anomaly`` -- the probabilistic pattern check: over each
  window it normalizes the counts into a category *distribution*,
  learns a baseline from the first ``baseline_windows`` windows, and
  alarms when the Jensen-Shannon divergence from the baseline exceeds
  ``threshold``.  A process that stops doing I/O (an infinite loop) or
  floods one category (a runaway writer) shifts the distribution and
  trips the detector.

Configuration::

    [strace]
    id = strace_slave01
    node = slave01
    interval = 1.0

    [syscall_anomaly]
    id = sys_anom
    input[s] = strace_slave01.counts
    window = 60
    baseline_windows = 3
    threshold = 0.15
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..analysis.metrics import Alarm
from ..core import (
    SCHEDULE_PARAMS,
    InputPortSpec,
    Module,
    Origin,
    ParamSpec,
    RunReason,
    TriggerSpec,
)
from ..core.errors import ConfigError
from ._window_sync import WINDOW_PARAMS, TimedWindow, window_check

#: Name of the service carrying node -> strace channel mappings.
STRACE_CHANNEL_SERVICE = "strace_channels"

_EPSILON = 1e-12


def _distribution(counts: np.ndarray) -> np.ndarray:
    """Normalize summed category counts into a probability vector."""
    counts = np.maximum(np.asarray(counts, dtype=float), 0.0)
    total = counts.sum()
    if total <= 0:
        return np.full(counts.shape, 1.0 / counts.size)
    return counts / total


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence between two category distributions.

    Symmetric, bounded in [0, ln 2]; 0 means identical behaviour.
    """
    p = np.maximum(np.asarray(p, dtype=float), _EPSILON)
    q = np.maximum(np.asarray(q, dtype=float), _EPSILON)
    p = p / p.sum()
    q = q / q.sum()
    m = 0.5 * (p + q)
    kl_pm = float(np.sum(p * np.log(p / m)))
    kl_qm = float(np.sum(q * np.log(q / m)))
    return 0.5 * (kl_pm + kl_qm)


class StraceModule(Module):
    """Poll ``strace_rpcd`` and emit per-second syscall count vectors."""

    type_name = "strace"
    params = (ParamSpec("node", "str", required=True),) + SCHEDULE_PARAMS
    ports = ()
    output_names = ("counts",)
    trigger = TriggerSpec.periodic()

    def init(self) -> None:
        ctx = self.ctx
        self.node = ctx.param_str("node")
        channels: Dict[str, object] = ctx.service(STRACE_CHANNEL_SERVICE)
        if self.node not in channels:
            raise ConfigError(
                f"strace instance '{ctx.instance_id}': no channel registered "
                f"for node '{self.node}'"
            )
        self.channel = channels[self.node]
        self.out = ctx.create_output(
            "counts", Origin(node=self.node, source="strace", metric="syscalls")
        )
        self.samples_collected = 0
        self.priming_skips = 0
        ctx.schedule_every(ctx.param_float("interval"), ctx.param_float("phase"))

    def run(self, reason: RunReason) -> None:
        now = self.ctx.clock.now()
        result = self.channel.call("trace", now=now)
        if result is None:
            self.priming_skips += 1
            return
        self.out.write(np.asarray(result, dtype=float), now)
        self.samples_collected += 1

    def close(self) -> None:
        close = getattr(self.channel, "close", None)
        if callable(close):
            close()


class SyscallAnomalyModule(Module):
    """Probabilistic syscall-pattern anomaly detection."""

    type_name = "syscall_anomaly"
    params = WINDOW_PARAMS + (
        ParamSpec("baseline_windows", "int", default="3", min_value=1),
        ParamSpec("threshold", "float", default="0.15", min_value=0.0),
    )
    ports = (InputPortSpec("s", max_connections=1),)
    output_names = ("alarms", "divergence")
    trigger = TriggerSpec.fixed(1)
    param_check = window_check("window")

    def init(self) -> None:
        ctx = self.ctx
        self.connection = ctx.input("s").single()
        origin = self.connection.origin
        self.node = origin.node if origin is not None else ""
        self.baseline_windows = ctx.param_int("baseline_windows")
        self.threshold = ctx.param_float("threshold")
        self._window = TimedWindow(ctx.param_int("window"), ctx.param_int("slide"))
        self._baseline_sum: np.ndarray = None
        self._baseline_count = 0
        self.alarms_out = ctx.create_output("alarms")
        self.divergence_out = ctx.create_output("divergence", origin)
        self.windows_scored = 0
        ctx.trigger_after_updates(1)

    def _baseline(self) -> np.ndarray:
        return _distribution(self._baseline_sum)

    def run(self, reason: RunReason) -> None:
        for sample in self.connection.pop_all():
            for start, end, matrix in self._window.push(
                sample.timestamp, sample.value
            ):
                self._score_window(start, end, matrix)

    def _score_window(self, start: float, end: float, matrix: np.ndarray) -> None:
        window_counts = matrix.sum(axis=0)
        if self._baseline_count < self.baseline_windows:
            # Learning phase: accumulate the behavioural baseline.
            if self._baseline_sum is None:
                self._baseline_sum = window_counts.copy()
            else:
                self._baseline_sum += window_counts
            self._baseline_count += 1
            return
        divergence = js_divergence(
            _distribution(window_counts), self._baseline()
        )
        now = self.ctx.clock.now()
        self.divergence_out.write(divergence, now)
        self.windows_scored += 1
        if divergence > self.threshold:
            self.alarms_out.write(
                Alarm(
                    time=now,
                    node=self.node,
                    source="strace",
                    detail=f"syscall JS divergence {divergence:.3f} > "
                    f"{self.threshold:.3f}",
                ),
                now,
            )
