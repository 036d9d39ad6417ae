"""Shared helpers for testing the standard ASDF modules."""

from typing import Dict, List, Optional

import numpy as np

from repro.core import FptCore, Module, ParamSpec, RunReason, SimClock
from repro.modules import standard_registry


class FakeChannel:
    """Stands in for an RPC channel: serves canned method results."""

    def __init__(self, responses: Optional[Dict[str, object]] = None) -> None:
        self.responses = responses or {}
        self.calls: List[tuple] = []
        self.closed = False

    def call(self, method: str, **params):
        self.calls.append((method, params))
        handler = self.responses.get(method)
        if callable(handler):
            return handler(**params)
        return handler

    def close(self) -> None:
        self.closed = True


class ScriptedSource(Module):
    """Emits a scripted sequence of values once per second.

    The script comes from the ``script`` service: a dict mapping this
    instance's id to a list of values.  Values equal to ``None`` are
    skipped (no write that tick).  The optional origin node comes from
    the ``node`` parameter.
    """

    type_name = "scripted"
    params = (ParamSpec("node", "str", default=""),)
    output_names = ("value",)

    def init(self) -> None:
        from repro.core import Origin

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


def build_core(config_text: str, services: dict, extra_modules=()) -> FptCore:
    registry = standard_registry()
    registry.register(ScriptedSource)
    for module_class in extra_modules:
        registry.register(module_class)
    return FptCore.from_config(config_text, registry, SimClock(), services=services)


def collected(core: FptCore, sink_id: str):
    """All sample values recorded by a print-module sink."""
    return [sample.value for sample in core.instance(sink_id).received]


def constant_series(value, n: int) -> list:
    return [value] * n


def vector_series(vectors) -> list:
    return [np.asarray(v, dtype=float) for v in vectors]
