"""CSV logging module: ASDF as a pure data-collection engine.

The paper's "offline and online analyses" goal (section 2.1): when users
want to post-process gathered data themselves, ASDF turns into a
data-collection and data-logging engine.  Wire any outputs into a
``csv_writer`` and every sample lands in a CSV file with its timestamp
and origin.

Configuration::

    [csv_writer]
    id = logger
    path = /tmp/asdf-metrics.csv
    input[a] = @sadc
"""

from __future__ import annotations

import csv

import numpy as np

from ..core import Module, ParamSpec, RunReason, TriggerSpec


def _flatten(value) -> list:
    """Render a sample value as a flat list of CSV cells."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [float(x) for x in np.asarray(value).ravel()]
    if isinstance(value, (int, float, np.floating, np.integer)):
        return [float(value)]
    return [str(value)]


class CsvWriterModule(Module):
    type_name = "csv_writer"
    params = (ParamSpec("path", "str", required=True),)
    requires_inputs = True
    output_names = ()
    trigger = TriggerSpec.fixed(1)
    sink = True

    def init(self) -> None:
        ctx = self.ctx
        self.path = ctx.param_str("path")
        self._file = open(self.path, "w", newline="")
        self._writer = csv.writer(self._file)
        self._writer.writerow(["timestamp", "origin", "values..."])
        self.rows_written = 0
        ctx.trigger_after_updates(1)

    def run(self, reason: RunReason) -> None:
        for group in self.ctx.inputs.values():
            for connection in group:
                origin = connection.origin
                origin_text = origin.describe() if origin is not None else ""
                for sample in connection.pop_all():
                    self._writer.writerow(
                        [f"{sample.timestamp:.3f}", origin_text]
                        + _flatten(sample.value)
                    )
                    self.rows_written += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
