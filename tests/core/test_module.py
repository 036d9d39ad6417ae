"""Tests for the ModuleContext plug-in API."""

import pytest

from repro.core import (
    ConfigError,
    InputGroup,
    ModuleContext,
    ModuleError,
    SimClock,
)


def make_context(params=None, services=None) -> ModuleContext:
    return ModuleContext("inst0", params or {}, SimClock(), services)


class TestParams:
    def test_str_param(self):
        assert make_context({"node": "slave01"}).param_str("node") == "slave01"

    def test_int_param_parses(self):
        assert make_context({"size": "10"}).param_int("size") == 10

    def test_int_param_bad_value(self):
        with pytest.raises(ConfigError, match="integer"):
            make_context({"size": "ten"}).param_int("size")

    def test_float_param_parses(self):
        assert make_context({"t": "2.5"}).param_float("t") == 2.5

    def test_float_param_bad_value(self):
        with pytest.raises(ConfigError, match="number"):
            make_context({"t": "x"}).param_float("t")

    @pytest.mark.parametrize("text,expected", [
        ("1", True), ("true", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_bool_param_parses(self, text, expected):
        assert make_context({"q": text}).param_bool("q") is expected

    def test_bool_param_bad_value(self):
        with pytest.raises(ConfigError, match="boolean"):
            make_context({"q": "maybe"}).param_bool("q")

    def test_list_param_splits_and_strips(self):
        ctx = make_context({"nodes": "a, b ,c,,"})
        assert ctx.param_list("nodes") == ["a", "b", "c"]

    def test_missing_required_param(self):
        with pytest.raises(ConfigError, match="missing required"):
            make_context().param_str("node")

    def test_default_is_returned_when_absent(self):
        assert make_context().param_int("size", 5) == 5
        assert make_context().param_float("t", 1.5) == 1.5
        assert make_context().param_bool("q", True) is True
        assert make_context().param_list("l", []) == []


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

    def test_require_no_inputs_passes_when_empty(self):
        make_context().require_no_inputs()

    def test_require_no_inputs_raises_when_wired(self):
        ctx = make_context()
        ctx.inputs["x"] = InputGroup("x")
        with pytest.raises(ModuleError, match="accepts no inputs"):
            ctx.require_no_inputs()

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
