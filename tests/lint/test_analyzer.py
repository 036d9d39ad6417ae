"""Config analysis: one fixture per FPT0xx diagnostic code.

The acceptance gate for fpt-lint: every class of configuration mistake
is caught statically, with the right stable code, without instantiating
a single module.
"""

import pytest

from repro.core import (
    InputPortSpec,
    Module,
    ModuleRegistry,
    ParamSpec,
    RunReason,
    TriggerSpec,
)
from repro.lint import analyze_config
from repro.lint.diagnostics import Severity
from repro.modules import standard_registry


def codes(diagnostics):
    return [d.code for d in diagnostics]


def only(diagnostics, code):
    found = [d for d in diagnostics if d.code == code]
    assert found, f"no {code} in {[d.render() for d in diagnostics]}"
    return found[0]


#: A minimal healthy pipeline many fixtures below perturb.
HEALTHY = """\
[sadc]
id = src
nodes = n1
metrics = ldavg_1

[mavgvec]
id = smooth
input[input] = src.n1.ldavg_1

[print]
id = out
input[x] = smooth.mean
"""


class TestCleanConfig:
    def test_healthy_pipeline_has_no_diagnostics(self):
        assert analyze_config(HEALTHY) == []


class TestSyntaxAndIds:
    def test_fpt000_syntax_error(self):
        diags = analyze_config("not a section header\n")
        diag = only(diags, "FPT000")
        assert diag.line == 1
        assert diag.severity is Severity.ERROR

    def test_fpt000_collects_multiple_errors(self):
        text = "junk line\n[sadc]\nid = s\nnodes = n1\nalso junk\n"
        assert codes(analyze_config(text)).count("FPT000") == 2

    def test_fpt002_duplicate_instance_id(self):
        text = HEALTHY + "\n[print]\nid = out\ninput[x] = smooth.mean\n"
        diag = only(analyze_config(text), "FPT002")
        assert "duplicate" in diag.message

    def test_fpt001_unknown_module_type(self):
        diag = only(analyze_config("[not_a_module]\nid = x\n"), "FPT001")
        assert "not_a_module" in diag.message
        assert diag.line == 1
        assert diag.instance == "x"


class TestWiring:
    def test_fpt003_unknown_instance(self):
        text = HEALTHY.replace("src.n1.ldavg_1", "ghost.ldavg_1")
        diag = only(analyze_config(text), "FPT003")
        assert "ghost" in diag.message
        assert diag.line == 8

    def test_fpt004_nonexistent_output(self):
        text = HEALTHY.replace("src.n1.ldavg_1", "src.nope")
        diag = only(analyze_config(text), "FPT004")
        assert "src.nope" in diag.message
        assert "ldavg_1" in diag.message  # suggests what does exist

    def test_fpt004_at_form_on_outputless_instance(self):
        text = """\
[print]
id = sink1
input[x] = smooth.mean

[mavgvec]
id = smooth
input[input] = @sink1
"""
        diag = only(analyze_config(text), "FPT004")
        assert "@sink1" in diag.message

    def test_fpt005_self_loop(self):
        text = "[mavgvec]\nid = loop\ninput[input] = loop.mean\n"
        diag = only(analyze_config(text), "FPT005")
        assert "its own" in diag.message

    def test_fpt005_cycle(self):
        text = """\
[mavgvec]
id = a
input[input] = b.mean

[mavgvec]
id = b
input[input] = a.mean
"""
        diag = only(analyze_config(text), "FPT005")
        assert "'a'" in diag.message and "'b'" in diag.message

    def test_fpt006_dead_instance_is_warning(self):
        text = HEALTHY + "\n[sadc]\nid = orphan\nnodes = n2\n"
        diag = only(analyze_config(text), "FPT006")
        assert diag.severity is Severity.WARNING
        assert diag.instance == "orphan"

    def test_fpt011_unknown_port(self):
        text = """\
[sadc]
id = src
nodes = n1

[knn]
id = k
input[bogus_port] = src.n1
model = bb_model

[print]
id = out
input[x] = k.output0
"""
        messages = [
            d.message for d in analyze_config(text) if d.code == "FPT011"
        ]
        assert any("bogus_port" in m for m in messages)

    def test_fpt011_missing_required_port(self):
        text = "[knn]\nid = k\nmodel = bb_model\n\n[print]\nid = o\ninput[x] = k.output0\n"
        diag = only(analyze_config(text), "FPT011")
        assert "required input port 'input'" in diag.message

    def test_fpt011_multiplicity_exceeded(self):
        text = """\
[sadc]
id = s1
nodes = n1

[sadc]
id = s2
nodes = n2

[knn]
id = k
input[input] = s1.n1
input[input] = s2.n2
model = bb_model

[print]
id = out
input[x] = k.output0
"""
        diag = only(analyze_config(text), "FPT011")
        assert "at most 1" in diag.message

    def test_fpt011_inputs_on_a_source(self):
        text = HEALTHY + "\n[sadc]\nid = s2\nnodes = n2\ninput[x] = smooth.mean\n"
        diag = only(analyze_config(text), "FPT011")
        assert "data source" in diag.message


class TestParams:
    def test_fpt007_unknown_param_is_error(self):
        """fpt-core refuses to build it, so the lint calls it an error."""
        text = HEALTHY.replace("nodes = n1", "nodes = n1\nbanana = 7")
        diag = only(analyze_config(text), "FPT007")
        assert diag.severity is Severity.ERROR
        assert "banana" in diag.message
        assert diag.line == 4

    def test_fpt008_bad_type(self):
        text = HEALTHY.replace(
            "input[input] = src.n1.ldavg_1",
            "input[input] = src.n1.ldavg_1\nwindow = sixty",
        )
        diag = only(analyze_config(text), "FPT008")
        assert "'window' must be int" in diag.message

    def test_fpt009_below_minimum(self):
        text = HEALTHY.replace(
            "input[input] = src.n1.ldavg_1",
            "input[input] = src.n1.ldavg_1\nwindow = 0",
        )
        diag = only(analyze_config(text), "FPT009")
        assert ">= 1" in diag.message

    def test_fpt009_bad_choice(self):
        text = HEALTHY.replace(
            "metrics = ldavg_1", "metrics = ldavg_1, bogus_metric"
        )
        diag = only(analyze_config(text), "FPT009")
        assert "bogus_metric" in diag.message

    def test_fpt009_cross_param_rule(self):
        text = """\
[sadc]
id = src
nodes = n1

[knn]
id = k
input[input] = src.n1
model = bb_model

[ibuffer]
id = buf
input[input] = k.output0
size = 5
slide = 9

[print]
id = out
input[x] = buf.output0
"""
        diag = only(analyze_config(text), "FPT009")
        assert "slide (9) must be <= size (5)" in diag.message

    def test_fpt010_missing_required(self):
        diag = only(analyze_config("[sadc]\nid = s\n"), "FPT010")
        assert "'nodes'" in diag.message


class Batcher(Module):
    """Runs on every update."""

    type_name = "batcher"
    params = (ParamSpec("need", "int", min_value=1),)
    ports = (InputPortSpec("input", required=False),)
    output_names = ("batch",)
    trigger = TriggerSpec.fixed(1)
    sink = True

    def run(self, reason: RunReason) -> None:
        pass


class TestScheduling:
    def _registry_with_batcher(self):
        registry = standard_registry()
        registry.register(Batcher)
        return registry

    def test_fpt012_satisfiable_trigger_is_clean(self):
        text = """\
[sadc]
id = src
nodes = n1

[batcher]
id = b
input[input] = src.n1
need = 1
"""
        diags = analyze_config(
            text, registry=self._registry_with_batcher()
        )
        assert "FPT012" not in codes(diags)

    def test_fpt012_fixed_trigger_with_no_wiring(self):
        text = "[knn]\nid = k\nmodel = bb_model\n\n[print]\nid = o\ninput[x] = k.output0\n"
        assert "FPT012" in codes(analyze_config(text))

    def test_fpt013_peer_group_too_small(self):
        text = """\
[sadc]
id = s1
nodes = n1

[sadc]
id = s2
nodes = n2

[analysis_bb]
id = bb
input[a] = s1.n1
input[b] = s2.n2
threshold = 40
num_states = 5

[print]
id = out
input[x] = bb.alarms
"""
        diag = only(analyze_config(text), "FPT013")
        assert "at least 3 peers" in diag.message
        assert "got 2" in diag.message

    def test_fpt013_three_peers_is_clean(self):
        text = """\
[sadc]
id = s1
nodes = n1

[sadc]
id = s2
nodes = n2

[sadc]
id = s3
nodes = n3

[analysis_bb]
id = bb
input[a] = s1.n1
input[b] = s2.n2
input[c] = s3.n3
threshold = 40
num_states = 5

[print]
id = out
input[x] = bb.alarms
"""
        assert "FPT013" not in codes(analyze_config(text))


class TestNoqaInConfigs:
    def test_marker_suppresses_on_its_line(self):
        text = HEALTHY.replace(
            "nodes = n1", "nodes = n1\nbanana = 7  # fpt: noqa[FPT007]"
        )
        assert analyze_config(text) == []

    def test_marker_can_be_disabled(self):
        text = HEALTHY.replace(
            "nodes = n1", "nodes = n1\nbanana = 7  # fpt: noqa[FPT007]"
        )
        assert "FPT007" in codes(analyze_config(text, noqa=False))


class TestCustomContracts:
    def test_unknown_type_with_custom_registry(self):
        registry = ModuleRegistry()
        registry.register(Batcher)
        diags = analyze_config("[other]\nid = x\n", registry=registry)
        assert codes(diags) == ["FPT001"]

    @pytest.mark.parametrize("code", ["FPT001", "FPT003", "FPT005"])
    def test_error_codes_are_errors(self, code):
        from repro.lint.diagnostics import CODES

        assert CODES[code][0] is Severity.ERROR
