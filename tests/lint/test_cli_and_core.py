"""The user-facing entry points: ``repro lint``, ConfigError line info,
and the FptCore opt-in fail-fast hook."""

import json

import pytest

from repro.cli import main
from repro.core import FptCore, Module, RunReason, SimClock
from repro.core.config import parse_config
from repro.core.errors import ConfigError
from repro.modules import standard_registry


class TickSource(Module):
    """A service-free data source for construction tests."""

    type_name = "tick_source"

    def init(self) -> None:
        self.ctx.require_no_inputs()
        self.out = self.ctx.create_output("value")
        self.ctx.schedule_every(self.ctx.param_float("interval", 1.0))

    def run(self, reason: RunReason) -> None:
        self.out.write(1.0, self.ctx.clock.now())


def tick_registry():
    registry = standard_registry()
    registry.register(TickSource)
    return registry


#: A buildable, service-free pipeline for the FptCore hook tests.
BUILDABLE = """\
[tick_source]
id = src

[mavgvec]
id = smooth
input[input] = src.value

[print]
id = out
input[x] = smooth.mean
"""

GOOD = """\
[sadc]
id = src
node = n1
metrics = ldavg_1

[mavgvec]
id = smooth
input[input] = src.ldavg_1

[print]
id = out
input[x] = smooth.mean
"""

BAD = """\
[no_such_module]
id = x

[mavgvec]
id = smooth
input[input] = ghost.mean

[print]
id = out
input[x] = smooth.mean
"""


class TestLintCommand:
    def test_clean_config_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "good.conf"
        path.write_text(GOOD)
        assert main(["lint", str(path)]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_bad_config_exits_one_with_codes(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text(BAD)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FPT001" in out and "FPT003" in out
        assert f"{path}:1:" in out  # file:line prefixes

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.conf")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text(BAD)
        assert main(["lint", "--json", str(path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert {d["code"] for d in data} >= {"FPT001", "FPT003"}

    def test_warnings_pass_unless_strict(self, tmp_path, capsys):
        path = tmp_path / "warn.conf"
        path.write_text(GOOD.replace("node = n1", "node = n1\nbanana = 1"))
        assert main(["lint", str(path)]) == 0
        assert main(["lint", "--strict", str(path)]) == 1

    def test_generated_impl_determinism_all_clean(self, capsys):
        assert main(["lint", "--slaves", "4"]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_cost_budget_flag_gates_the_generated_deployment(self, capsys):
        assert main(["lint", "--cost", "--slaves", "50"]) == 0
        assert "FPT301" not in capsys.readouterr().out
        assert main(["lint", "--cost", "--slaves", "50", "--budget-ms", "1"]) == 1
        out = capsys.readouterr().out
        assert "FPT301" in out and "budget 1 ms" in out

    @pytest.mark.parametrize("budget", ["0", "-5", "nan"])
    def test_non_positive_budget_is_a_usage_error(self, budget, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--cost", "--budget-ms", budget])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--budget-ms: must be positive" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_scale_section_gets_the_runtimes_verdict(self, tmp_path, capsys):
        """``[scale]`` was a lint-only section the runtime never knew."""
        text = "[scale]\nid = fleet\nn = 1000\n\n" + GOOD
        path = tmp_path / "scale.conf"
        path.write_text(text)
        assert main(["lint", "--cost", str(path)]) == 1
        assert "FPT001" in capsys.readouterr().out
        with pytest.raises(ConfigError, match="unknown module type 'scale'"):
            FptCore.from_config(text, standard_registry(), SimClock())


class TestConfigErrorLineInfo:
    def test_parse_error_carries_line_and_text(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("[sadc]\nid = a\nwat\n")
        error = excinfo.value
        assert error.line_no == 3
        assert error.line_text.strip() == "wat"
        described = error.describe()
        assert "line 3" in described
        assert "wat" in described

    def test_lenient_mode_collects_instead_of_raising(self):
        errors = []
        specs = parse_config("[sadc]\nid = a\nnode = n\nwat\n", collect=errors)
        assert len(errors) == 1
        assert errors[0].line_no == 4
        assert [s.instance_id for s in specs] == ["a"]

    def test_cli_surfaces_line_info(self, monkeypatch, capsys):
        from repro import cli

        def boom(args):
            raise ConfigError("broken wiring", line_no=7, line_text="x = y")

        monkeypatch.setattr(cli, "cmd_table2", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["table2"])
        monkeypatch.setattr(args, "handler", boom)
        # Route through main() by reproducing its dispatch with the
        # patched handler raising.
        assert cli.main(["table2"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "line 7" in err
        assert "x = y" in err
        assert "repro lint" in err  # points at the analyzer


class TestFptCoreLintHook:
    def test_lint_true_rejects_bad_config_before_instantiation(self):
        with pytest.raises(ConfigError, match="FPT001"):
            FptCore.from_config(
                "[no_such]\nid = x\n", standard_registry(), SimClock(),
                lint=True,
            )

    def test_lint_true_accepts_clean_config(self):
        core = FptCore.from_config(
            BUILDABLE, tick_registry(), SimClock(), lint=True
        )
        assert sorted(core.instances) == ["out", "smooth", "src"]
        core.close()

    def test_warnings_do_not_block_construction(self):
        text = BUILDABLE.replace("id = src", "id = src\nbanana = 1")
        core = FptCore.from_config(
            text, tick_registry(), SimClock(), lint=True
        )
        core.close()

    def test_default_is_off(self):
        # Identical bad config constructs (then fails at build) only
        # through the *wiring* error path, proving lint didn't run.
        with pytest.raises(ConfigError, match="unknown module type"):
            FptCore.from_config(
                "[no_such]\nid = x\n", standard_registry(), SimClock()
            )

    def test_specs_path_lints_too(self):
        specs = parse_config("[knn]\nid = k\nmodel = bb_model\n")
        with pytest.raises(ConfigError, match="FPT011"):
            FptCore(specs, standard_registry(), SimClock(), lint=True)


class TestRuntimeUnconsumedParams:
    def test_clean_pipeline_consumes_everything(self):
        core = FptCore.from_config(BUILDABLE, tick_registry(), SimClock())
        assert core.unconsumed_param_diagnostics() == []
        core.close()

    def test_stray_param_reported_after_init(self):
        # Static lint would warn too; the runtime check proves the
        # module really never read it, computed names included.
        text = BUILDABLE.replace("id = src", "id = src\nstray = 1")
        core = FptCore.from_config(text, tick_registry(), SimClock())
        diags = core.unconsumed_param_diagnostics()
        assert [d.code for d in diags] == ["FPT007"]
        assert "stray" in diags[0].message
        assert diags[0].instance == "src"
        core.close()
