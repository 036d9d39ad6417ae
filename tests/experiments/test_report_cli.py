"""Tests for the ASCII report renderer and the CLI."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.experiments import ScenarioConfig, run_scenario
from repro.experiments.report import render_summary, render_timeline


@pytest.fixture(scope="module")
def fault_result(tiny_model):
    config = ScenarioConfig(
        num_slaves=5,
        duration_s=360.0,
        seed=13,
        window=30,
        slide=30,
        fault_name="CPUHog",
        inject_time=120.0,
    )
    return run_scenario(config, model=tiny_model)


class TestTimeline:
    def test_one_row_per_node(self, fault_result):
        text = render_timeline(fault_result)
        for node in (f"slave{i + 1:02d}" for i in range(5)):
            assert node in text

    def test_culprit_row_tagged(self, fault_result):
        text = render_timeline(fault_result)
        culprit_line = next(
            line for line in text.splitlines() if fault_result.truth.faulty_node in line
        )
        assert "<- injected" in culprit_line

    def test_injection_marker_row_present(self, fault_result):
        assert "(fault injected)" in render_timeline(fault_result)

    def test_grid_width_matches_window_count(self, fault_result):
        windows = {
            (d.window_start, d.window_end) for d in fault_result.decisions_wb
        }
        text = render_timeline(fault_result)
        culprit_line = next(
            line for line in text.splitlines()
            if fault_result.truth.faulty_node in line
        )
        grid = culprit_line.split()[1]
        assert len(grid) == len(windows)

    def test_empty_result_renders_placeholder(self, tiny_model):
        config = ScenarioConfig(
            num_slaves=5, duration_s=20.0, seed=13, window=30, slide=30
        )
        result = run_scenario(config, model=tiny_model)
        assert "no analysis windows" in render_timeline(result)


class TestSummary:
    def test_mentions_fault_and_detectors(self, fault_result):
        text = render_summary(fault_result)
        assert "CPUHog" in text
        for detector in ("black-box", "white-box", "combined"):
            assert detector in text

    def test_fault_free_summary(self, tiny_model):
        config = ScenarioConfig(
            num_slaves=5, duration_s=120.0, seed=13, window=30, slide=30
        )
        result = run_scenario(config, model=tiny_model)
        assert "fault: none" in render_summary(result)


def _leaves(parser, path=()):
    """Every leaf parser under ``parser``, by command path."""
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
        return
    for name, sub in subparsers[0].choices.items():
        yield from _leaves(sub, path + (name,))


#: A small scenario every demo test shares: seconds, not minutes.
SMALL_DEMO = ["--slaves", "4", "--duration", "180", "--inject", "60"]


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert set(commands.choices) == {
            "demo", "paper", "bench", "config", "lint", "incident",
            "replay", "cluster",
        }
        for argv in (["demo"], ["paper", "table2"], ["paper", "figure6"],
                     ["paper", "figure7"], ["paper", "overhead"],
                     ["bench"], ["config"], ["lint"]):
            assert callable(parser.parse_args(argv).handler)

    def test_the_cli_has_at_most_eighty_options(self):
        count = sum(
            1
            for _path, leaf in _leaves(build_parser())
            for action in leaf._actions
            if not isinstance(action, argparse._HelpAction)
        )
        assert count <= 80

    @pytest.mark.parametrize(
        "command", ["telemetry", "top", "calibrate", "figure7", "overhead",
                    "table2"],
    )
    def test_folded_commands_are_gone(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["config", "--jobs", "2"],
        ["config", "--seed", "3"],
        ["lint", "--seed", "3"],
        ["lint", "--duration", "1"],
        ["demo", "--jobs", "2"],
        ["demo", "--no-spans"],
        ["demo", "--tail", "3"],
        ["demo", "--refresh", "5"],
        ["paper", "figure6", "--jobs", "2"],
        ["paper", "figure6", "--inject", "60"],
        ["paper", "overhead", "--seed", "1"],
        ["paper", "overhead", "--jobs", "2"],
        ["paper", "table2", "--slaves", "3"],
        ["cluster", "node", "--name", "n1"],
        ["cluster", "top", "--max-frame-bytes", "1"],
        ["cluster", "drive", "--max-frame-bytes", "1"],
    ])
    def test_removed_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_table2_command(self, capsys):
        assert main(["paper", "table2"]) == 0
        out = capsys.readouterr().out
        assert "HADOOP-1036" in out
        assert "CPUHog" in out

    def test_config_command_emits_parsable_config(self, capsys):
        assert main(["config", "--slaves", "3"]) == 0
        out = capsys.readouterr().out
        from repro.core import parse_config

        specs = parse_config(out)
        assert any(spec.module_type == "analysis_bb" for spec in specs)

    def test_demo_rejects_unknown_fault(self):
        with pytest.raises(SystemExit):
            main(["demo", "--fault", "Gremlins"])

    def test_demo_telemetry_flags_write_files_and_summary(
        self, tmp_path, capsys
    ):
        paths = {flag: tmp_path / name for flag, name in (
            ("--trace", "t.json"), ("--metrics", "t.prom"),
            ("--audit", "t.jsonl"), ("--dot", "t.dot"),
        )}
        main(["demo", *SMALL_DEMO,
              *[arg for flag, path in paths.items() for arg in (flag, str(path))]])
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        # A run this short raises no alarm: the audit file is empty.
        assert all(path.exists() for path in paths.values())
        assert "fpt_instance_runs_total" in paths["--metrics"].read_text()
        assert paths["--dot"].read_text().startswith("digraph")

    def test_demo_top_off_a_terminal_prints_one_final_frame(self, capsys):
        main(["demo", *SMALL_DEMO, "--top"])
        out = capsys.readouterr().out
        assert out.count("asdf top") == 1
        assert "\x1b[" not in out
        assert out.index("asdf top") < out.index("fault: CPUHog")

    @pytest.mark.slow
    def test_demo_end_to_end(self, capsys):
        code = main(
            [
                "demo",
                "--slaves", "8",
                "--duration", "600",
                "--fault", "HADOOP-2080",
                "--inject", "200",
            ]
        )
        out = capsys.readouterr().out
        assert "fingerpointed correctly" in out
        assert code == 0
