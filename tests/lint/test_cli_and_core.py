"""The user-facing entry points: ``repro lint``, ConfigError line info,
and linting a config before building it."""

import json

import pytest

from repro.cli import main
from repro.core import FptCore, Module, RunReason, SimClock
from repro.core.config import parse_config
from repro.core.errors import ConfigError
from repro.lint import analyze_config, analyze_specs, has_errors, lint_markers
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


#: A buildable, service-free pipeline for the lint-then-build tests.
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

    def test_everything_lints_clean(self, capsys):
        assert main(["lint", "--slaves", "4"]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_determinism_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--determinism"])
        assert exit_info.value.code == 2
        assert "--determinism" in capsys.readouterr().err

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


#: Markers the retired FPT2xx/FPT402/FPT403 rules left behind.
STALE = """\
import time
t = time.time()  # fpt: noqa[FPT201] -- metadata stamp
lock.acquire()  # fpt: noqa[FPT402]
ok = 1  # fpt: noqa[FPT401] -- single writer
"""


class TestStaleMarkers:
    def test_retired_codes_are_reported_as_fpt090(self, tmp_path, monkeypatch):
        package = tmp_path / "stalepkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(STALE)
        monkeypatch.syspath_prepend(str(tmp_path))
        findings = lint_markers(("stalepkg",))
        assert [(d.code, d.line) for d in findings] == [
            ("FPT090", 2), ("FPT090", 3),
        ]
        assert "FPT201" in findings[0].message
        assert "FPT402" in findings[1].message

    def test_repro_lint_scans_the_source_for_them(self, monkeypatch, capsys):
        from repro.lint import diagnostics

        monkeypatch.setattr(
            diagnostics, "package_sources",
            lambda packages: [(STALE, "repro/cluster/stale.py")],
        )
        assert main(["lint", "--slaves", "4"]) == 1
        out = capsys.readouterr().out
        assert "repro/cluster/stale.py:2: FPT090" in out
        assert "repro/cluster/stale.py:3: FPT090" in out


class TestLintBeforeBuild:
    """README's programmatic gate: ``analyze_config`` + ``has_errors``
    before ``FptCore.from_config``, so a bad config never builds."""

    def test_errors_block_before_any_module_is_built(self):
        diagnostics = analyze_config(
            "[no_such]\nid = x\n", registry=standard_registry()
        )
        assert has_errors(diagnostics)
        assert [d.code for d in diagnostics] == ["FPT001"]

    def test_clean_config_passes_and_builds(self):
        registry = tick_registry()
        assert analyze_config(BUILDABLE, registry=registry) == []
        core = FptCore.from_config(BUILDABLE, registry, SimClock())
        assert sorted(core.instances) == ["out", "smooth", "src"]
        core.close()

    def test_warnings_do_not_block_construction(self):
        text = BUILDABLE.replace("id = src", "id = src\nbanana = 1")
        diagnostics = analyze_config(text, registry=tick_registry())
        assert [d.code for d in diagnostics] == ["FPT007"]
        assert not has_errors(diagnostics)
        FptCore.from_config(text, tick_registry(), SimClock()).close()

    def test_specs_path_lints_too(self):
        specs = parse_config("[knn]\nid = k\nmodel = bb_model\n")
        diagnostics = analyze_specs(specs, registry=standard_registry())
        assert "FPT011" in {d.code for d in diagnostics}
        assert has_errors(diagnostics)
