"""Tests for the white-box peer-comparison analysis module."""

import numpy as np
import pytest

from repro.analysis import Alarm, WindowDecision
from repro.core import ConfigError

from .helpers import build_core, vector_series


def make_core(scripts, k=2.0, window=5, consecutive=1):
    nodes = sorted(scripts)
    lines = []
    for node in nodes:
        lines += ["[scripted]", f"id = src_{node}", f"node = {node}", ""]
    lines += [
        "[analysis_wb]",
        "id = wb",
        f"k = {k}",
        f"window = {window}",
        f"slide = {window}",
        f"consecutive = {consecutive}",
    ]
    lines += [f"input[n{i}] = src_{node}.value" for i, node in enumerate(nodes)]
    lines += [
        "",
        "[print]", "id = alarms", "input[a] = wb.alarms", "",
        "[print]", "id = decisions", "input[a] = wb.decisions", "",
        "[print]", "id = stats", "input[a] = wb.stats",
    ]
    script = {f"src_{node}": values for node, values in scripts.items()}
    return build_core("\n".join(lines) + "\n", {"script": script})


def alarms_of(core):
    return [s.value for s in core.instance("alarms").received if isinstance(s.value, Alarm)]


def steady(vector, n=10):
    return vector_series([vector] * n)


class TestDetection:
    def test_identical_nodes_raise_no_alarms(self):
        scripts = {node: steady([1.0, 0.0]) for node in ("a", "b", "c")}
        core = make_core(scripts)
        core.run_until(9.0)
        assert alarms_of(core) == []

    def test_node_with_large_mean_shift_fingerpointed(self):
        scripts = {
            "a": steady([1.0, 0.0]),
            "b": steady([1.0, 0.0]),
            "c": steady([4.0, 0.0]),  # deviation 3 > max(1, k*0) = 1
        }
        core = make_core(scripts)
        core.run_until(9.0)
        assert {a.node for a in alarms_of(core)} == {"c"}

    def test_floor_of_one_suppresses_small_count_wiggles(self):
        """A metric that differs by less than one task never alarms,
        no matter how small k is (paper section 4.4)."""
        scripts = {
            "a": steady([1.0]),
            "b": steady([1.0]),
            "c": steady([1.9]),
        }
        core = make_core(scripts, k=0.0)
        core.run_until(9.0)
        assert alarms_of(core) == []

    def test_k_scales_tolerance_for_noisy_metrics(self):
        rng = np.random.default_rng(0)
        noisy = lambda base: vector_series(
            [[base + rng.normal(0, 2.0)] for _ in range(10)]
        )
        scripts = {"a": noisy(5.0), "b": noisy(5.0), "c": noisy(11.0)}
        strict = make_core({k: list(v) for k, v in scripts.items()}, k=0.0)
        strict.run_until(9.0)
        # With k=0 the threshold floor is 1; the shifted node trips it
        # (noisy healthy nodes may occasionally trip it too).
        assert "c" in {a.node for a in alarms_of(strict)}

    def test_consecutive_requirement(self):
        scripts = {
            "a": steady([1.0]),
            "b": steady([1.0]),
            "c": vector_series([[5.0]] * 5 + [[1.0]] * 5),
        }
        core = make_core(scripts, consecutive=2)
        core.run_until(9.0)
        assert alarms_of(core) == []

    def test_alarm_names_offending_metrics(self):
        scripts = {
            "a": steady([1.0, 2.0]),
            "b": steady([1.0, 2.0]),
            "c": steady([1.0, 9.0]),
        }
        core = make_core(scripts)
        core.run_until(9.0)
        alarm = alarms_of(core)[0]
        assert alarm.source == "whitebox"
        assert "1" in alarm.detail  # metric index 1


class TestOutputsAndValidation:
    def test_decisions_one_per_node_per_round(self):
        scripts = {node: steady([1.0]) for node in ("a", "b", "c")}
        core = make_core(scripts)
        core.run_until(9.0)
        decisions = [
            d
            for s in core.instance("decisions").received
            for d in s.value
            if isinstance(d, WindowDecision)
        ]
        assert len(decisions) == 6

    def test_stats_carry_means_and_stds(self):
        scripts = {node: steady([2.0]) for node in ("a", "b", "c")}
        core = make_core(scripts)
        core.run_until(9.0)
        stats = [s.value for s in core.instance("stats").received]
        assert np.asarray(stats[0]["means"]).shape == (3, 1)
        assert np.asarray(stats[0]["stds"]).shape == (3, 1)

    def test_requires_three_nodes(self):
        with pytest.raises(ConfigError, match="at least 3"):
            make_core({"a": steady([1.0]), "b": steady([1.0])})

    def test_rejects_missing_node_origin(self):
        config = "".join(f"[scripted]\nid = src{i}\n\n" for i in range(3)) + (
            "[analysis_wb]\nid = wb\n"
            "input[n0] = src0.value\ninput[n1] = src1.value\ninput[n2] = src2.value\n"
        )
        with pytest.raises(ConfigError, match="node origin"):
            build_core(config, {"script": {f"src{i}": [1.0] for i in range(3)}})
