"""Tests for the ModuleContext plug-in API."""

import pytest

from repro.core import (
    ConfigError,
    InputGroup,
    Module,
    ModuleContext,
    ModuleError,
    ParamSpec,
    SimClock,
)


class Declared(Module):
    """One param of each type; every accessor reads through this."""

    type_name = "declared"
    params = (
        ParamSpec("node", "str", required=True),
        ParamSpec("size", "int", default="5"),
        ParamSpec("slide", "int", default="size"),
        ParamSpec("t", "float", default="1.5"),
        ParamSpec("q", "bool", default="true"),
        ParamSpec("nodes", "list", default=""),
        ParamSpec("prefix", "str"),
    )

    def run(self, reason) -> None:
        pass


def make_context(params=None, services=None) -> ModuleContext:
    ctx = ModuleContext("inst0", params or {}, SimClock(), services)
    Declared(ctx)  # a module installs its class's declaration
    return ctx


class TestParams:
    def test_str_param(self):
        assert make_context({"node": "slave01"}).param_str("node") == "slave01"

    def test_int_param_parses(self):
        assert make_context({"size": "10"}).param_int("size") == 10

    def test_int_param_bad_value(self):
        with pytest.raises(ConfigError, match="'size' must be int"):
            make_context({"size": "ten"}).param_int("size")

    def test_float_param_parses(self):
        assert make_context({"t": "2.5"}).param_float("t") == 2.5

    def test_float_param_bad_value(self):
        with pytest.raises(ConfigError, match="'t' must be float"):
            make_context({"t": "x"}).param_float("t")

    @pytest.mark.parametrize("text,expected", [
        ("1", True), ("true", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_bool_param_parses(self, text, expected):
        assert make_context({"q": text}).param_bool("q") is expected

    def test_bool_param_bad_value(self):
        with pytest.raises(ConfigError, match="'q' must be bool"):
            make_context({"q": "maybe"}).param_bool("q")

    def test_list_param_splits_and_strips(self):
        ctx = make_context({"nodes": "a, b ,c,,"})
        assert ctx.param_list("nodes") == ["a", "b", "c"]

    def test_missing_required_param(self):
        with pytest.raises(ConfigError, match="missing required"):
            make_context().param_str("node")

    def test_default_is_returned_when_absent(self):
        """The declaration's default, typed; no accessor takes one."""
        ctx = make_context()
        assert ctx.param_int("size") == 5
        assert ctx.param_float("t") == 1.5
        assert ctx.param_bool("q") is True
        assert ctx.param_list("nodes") == []
        assert ctx.param_str("prefix") is None

    def test_default_may_name_another_param(self):
        assert make_context().param_int("slide") == 5
        assert make_context({"size": "8"}).param_int("slide") == 8
        assert make_context({"size": "8", "slide": "2"}).param_int("slide") == 2

    def test_undeclared_param_read_raises(self):
        ctx = make_context({"banana": "1"})
        with pytest.raises(ModuleError, match="declares no such parameter"):
            ctx.param_str("banana")

    def test_accessor_must_match_the_declared_type(self):
        with pytest.raises(ModuleError, match="declares it int"):
            make_context({"size": "3"}).param_float("size")


class TestServices:
    def test_service_lookup(self):
        ctx = make_context(services={"model": object()})
        assert ctx.service("model") is ctx.services["model"]

    def test_missing_service_raises_with_available(self):
        ctx = make_context(services={"model": 1})
        with pytest.raises(ConfigError, match="model"):
            ctx.service("other")


class TestOutputsAndInputs:
    def test_create_output_registers(self):
        ctx = make_context()
        output = ctx.create_output("value")
        assert ctx.outputs["value"] is output
        assert output.owner_id == "inst0"

    def test_duplicate_output_rejected(self):
        ctx = make_context()
        ctx.create_output("value")
        with pytest.raises(ModuleError, match="twice"):
            ctx.create_output("value")

    def test_input_lookup_missing_raises(self):
        with pytest.raises(ModuleError, match="not wired"):
            make_context().input("input")

    def test_connection_count_sums_groups(self):
        ctx = make_context()
        from repro.core import Output

        group = InputGroup("x")
        group.connections.append(Output("a", "o").subscribe())
        group.connections.append(Output("a", "p").subscribe())
        ctx.inputs["x"] = group
        assert ctx.connection_count() == 2


class TestSchedulingHooks:
    def test_schedule_without_hooks_raises(self):
        with pytest.raises(ModuleError, match="hooks"):
            make_context().schedule_every(1.0)

    def test_trigger_without_hooks_raises(self):
        with pytest.raises(ModuleError, match="hooks"):
            make_context().trigger_after_updates(1)

    def test_non_positive_interval_rejected(self):
        ctx = make_context()
        ctx._schedule_periodic = lambda *a: None
        with pytest.raises(ModuleError, match="non-positive"):
            ctx.schedule_every(0.0)

    def test_negative_phase_rejected(self):
        """Every poller is covered: a phase before t=0 would stamp the
        first samples all at t=0."""
        ctx = make_context()
        ctx._schedule_periodic = lambda *a: None
        with pytest.raises(ModuleError, match="negative scheduling phase: -5"):
            ctx.schedule_every(1.0, phase=-5.0)
        ctx.schedule_every(1.0, phase=0.0)

    def test_non_positive_trigger_rejected(self):
        ctx = make_context()
        ctx._set_trigger = lambda *a: None
        with pytest.raises(ModuleError, match="non-positive"):
            ctx.trigger_after_updates(0)

    def test_hooks_are_forwarded(self):
        calls = []
        ctx = make_context()
        ctx._schedule_periodic = lambda *a: calls.append(("p", a))
        ctx._set_trigger = lambda *a: calls.append(("t", a))
        ctx.schedule_every(2.0, phase=0.5)
        ctx.trigger_after_updates(3)
        assert calls == [("p", ("inst0", 2.0, 0.5)), ("t", ("inst0", 3))]
