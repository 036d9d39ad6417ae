"""Tests for the black-box peer-comparison analysis module."""

import pytest

from repro.analysis import Alarm, WindowDecision
from repro.core import ConfigError

from .helpers import build_core


def make_core(scripts, threshold=4.0, window=5, consecutive=1, num_states=3):
    nodes = sorted(scripts)
    lines = []
    for node in nodes:
        lines += [f"[scripted]", f"id = src_{node}", f"node = {node}", ""]
    lines += [
        "[analysis_bb]",
        "id = bb",
        f"threshold = {threshold}",
        f"window = {window}",
        f"slide = {window}",
        f"consecutive = {consecutive}",
        f"num_states = {num_states}",
    ]
    lines += [f"input[l{i}] = src_{node}.value" for i, node in enumerate(nodes)]
    lines += [
        "",
        "[print]",
        "id = alarms",
        "input[a] = bb.alarms",
        "",
        "[print]",
        "id = decisions",
        "input[a] = bb.decisions",
        "",
        "[print]",
        "id = stats",
        "input[a] = bb.stats",
    ]
    script = {f"src_{node}": values for node, values in scripts.items()}
    return build_core("\n".join(lines) + "\n", {"script": script})


def alarms_of(core):
    return [s.value for s in core.instance("alarms").received if isinstance(s.value, Alarm)]


def decisions_of(core):
    return [
        d
        for s in core.instance("decisions").received
        for d in s.value
        if isinstance(d, WindowDecision)
    ]


class TestDetection:
    def test_homogeneous_nodes_raise_no_alarms(self):
        scripts = {node: [0] * 10 for node in ("a", "b", "c")}
        core = make_core(scripts)
        core.run_until(9.0)
        assert alarms_of(core) == []

    def test_deviant_node_fingerpointed(self):
        scripts = {
            "a": [0] * 10,
            "b": [0] * 10,
            "c": [2] * 10,  # entirely different state histogram
        }
        core = make_core(scripts, threshold=4.0)
        core.run_until(9.0)
        culprits = {alarm.node for alarm in alarms_of(core)}
        assert culprits == {"c"}

    def test_threshold_gates_detection(self):
        scripts = {"a": [0] * 10, "b": [0] * 10, "c": [2] * 10}
        core = make_core(scripts, threshold=100.0)
        core.run_until(9.0)
        assert alarms_of(core) == []

    def test_consecutive_windows_required(self):
        # c is anomalous only in the first window of two.
        scripts = {
            "a": [0] * 10,
            "b": [0] * 10,
            "c": [2] * 5 + [0] * 5,
        }
        core = make_core(scripts, consecutive=2)
        core.run_until(9.0)
        assert alarms_of(core) == []

    def test_consecutive_streak_fires(self):
        scripts = {"a": [0] * 15, "b": [0] * 15, "c": [2] * 15}
        core = make_core(scripts, consecutive=2)
        core.run_until(14.0)
        alarms = alarms_of(core)
        assert len(alarms) == 2  # windows 2 and 3 of 3
        assert all(a.node == "c" for a in alarms)

    def test_alarm_source_is_blackbox(self):
        scripts = {"a": [0] * 5, "b": [0] * 5, "c": [2] * 5}
        core = make_core(scripts)
        core.run_until(4.0)
        assert alarms_of(core)[0].source == "blackbox"

    def test_batched_inputs_from_ibuffer(self):
        nodes = ("a", "b", "c")
        lines = []
        for node in nodes:
            lines += ["[scripted]", f"id = src_{node}", f"node = {node}", ""]
        lines += ["[ibuffer]", "id = buf", "size = 5"]
        lines += [f"input[input] = src_{n}.value" for n in nodes]
        lines += [
            "", "[analysis_bb]", "id = bb", "threshold = 4", "window = 5",
            "consecutive = 1", "num_states = 3",
        ]
        lines += [f"input[l{i}] = buf.{n}" for i, n in enumerate(nodes)]
        lines += ["", "[print]", "id = alarms", "input[a] = bb.alarms"]
        script = {"src_a": [0] * 10, "src_b": [0] * 10, "src_c": [2] * 10}
        core = build_core("\n".join(lines) + "\n", {"script": script})
        core.run_until(9.0)
        assert {a.node for a in alarms_of(core)} == {"c"}


class TestOutputs:
    def test_decisions_cover_all_nodes_each_round(self):
        scripts = {node: [0] * 10 for node in ("a", "b", "c")}
        core = make_core(scripts)
        core.run_until(9.0)
        decisions = decisions_of(core)
        assert len(decisions) == 6  # 2 rounds x 3 nodes
        assert {d.node for d in decisions} == {"a", "b", "c"}

    def test_decision_windows_match_sample_times(self):
        scripts = {node: [0] * 5 for node in ("a", "b", "c")}
        core = make_core(scripts, window=5)
        core.run_until(4.0)
        decision = decisions_of(core)[0]
        assert decision.window_start == 0.0
        assert decision.window_end == 5.0

    def test_stats_carry_deviations(self):
        scripts = {"a": [0] * 5, "b": [0] * 5, "c": [2] * 5}
        core = make_core(scripts)
        core.run_until(4.0)
        stats = [s.value for s in core.instance("stats").received]
        assert stats[0]["nodes"] == ["a", "b", "c"]
        assert stats[0]["deviations"][2] == pytest.approx(10.0)  # full L1 shift

    def test_rounds_processed_counter(self):
        scripts = {node: [0] * 10 for node in ("a", "b", "c")}
        core = make_core(scripts)
        core.run_until(9.0)
        assert core.instance("bb").rounds_processed == 2


class TestValidation:
    def test_requires_three_nodes(self):
        with pytest.raises(ConfigError, match="at least 3"):
            make_core({"a": [0], "b": [0]})

    def test_rejects_inputs_without_node_origin(self):
        # No node param -> empty origin node; three peers so the group
        # size passes the declaration and init() gets to the origins.
        config = "".join(f"[scripted]\nid = src{i}\n\n" for i in range(3)) + (
            "[analysis_bb]\nid = bb\nthreshold = 1\nnum_states = 2\n"
            "input[l0] = src0.value\ninput[l1] = src1.value\ninput[l2] = src2.value\n"
        )
        with pytest.raises(ConfigError, match="node origin"):
            build_core(config, {"script": {f"src{i}": [0] for i in range(3)}})

    def test_rejects_duplicate_node(self):
        config = (
            "[scripted]\nid = s1\nnode = a\n\n[scripted]\nid = s2\nnode = a\n\n"
            "[scripted]\nid = s3\nnode = b\n\n"
            "[analysis_bb]\nid = bb\nthreshold = 1\nnum_states = 2\n"
            "input[l0] = s1.value\ninput[l1] = s2.value\ninput[l2] = s3.value\n"
        )
        with pytest.raises(ConfigError, match="two inputs"):
            build_core(config, {"script": {"s1": [0], "s2": [0], "s3": [0]}})

    def test_out_of_range_state_clipped(self):
        scripts = {"a": [0] * 5, "b": [0] * 5, "c": [99] * 5}
        core = make_core(scripts, num_states=3)
        core.run_until(4.0)  # no crash; 99 clipped into the last state
        assert {a.node for a in alarms_of(core)} == {"c"}
