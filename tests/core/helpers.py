"""Small test modules shared by the core framework tests."""

from repro.core import SCHEDULE_PARAMS, Module, ModuleRegistry, ParamSpec, RunReason


class SourceModule(Module):
    """Emits an incrementing counter on a periodic schedule."""

    type_name = "source"
    params = SCHEDULE_PARAMS
    ports = ()

    def init(self) -> None:
        self.out = self.ctx.create_output("value")
        self.counter = 0
        self.ctx.schedule_every(
            self.ctx.param_float("interval"), self.ctx.param_float("phase")
        )

    def run(self, reason: RunReason) -> None:
        self.out.write(self.counter, self.ctx.clock.now())
        self.counter += 1


class DoubleModule(Module):
    """Doubles every sample from its single input."""

    type_name = "double"

    def init(self) -> None:
        self.connection = self.ctx.input("input").single()
        self.out = self.ctx.create_output("value")

    def run(self, reason: RunReason) -> None:
        for sample in self.connection.pop_all():
            self.out.write(sample.value * 2, sample.timestamp)


class SinkModule(Module):
    """Records everything arriving on any input."""

    type_name = "sink"
    params = (ParamSpec("trigger", "int", min_value=1),)  # absent: every input

    def init(self) -> None:
        self.seen = []
        self.run_reasons = []
        self.ctx.trigger_after_updates(
            self.ctx.param_int("trigger") or self.ctx.connection_count() or 1
        )

    def run(self, reason: RunReason) -> None:
        self.run_reasons.append(reason)
        for group in self.ctx.inputs.values():
            for connection in group:
                for sample in connection.pop_all():
                    self.seen.append((sample.timestamp, sample.value))


class NoOutputModule(Module):
    """A module that declares no outputs (valid terminal vertex)."""

    type_name = "no_output"

    def init(self) -> None:
        pass

    def run(self, reason: RunReason) -> None:
        pass


def build_registry() -> ModuleRegistry:
    registry = ModuleRegistry()
    registry.register(SourceModule)
    registry.register(DoubleModule)
    registry.register(SinkModule)
    registry.register(NoOutputModule)
    return registry
