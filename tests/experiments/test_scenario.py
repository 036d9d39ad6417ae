"""Tests for the end-to-end scenario runner."""

import pytest

from repro.analysis import WindowDecision
from repro.core import parse_config
from repro.experiments import (
    ScenarioConfig,
    build_asdf_config_text,
    merge_decisions,
    run_scenario,
)
from repro.lint import analyze_config


def small_config(**kwargs) -> ScenarioConfig:
    defaults = {
        "num_slaves": 5,
        "duration_s": 300.0,
        "seed": 13,
        "window": 30,
        "slide": 30,
        "inject_time": 100.0,
    }
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestConfigGeneration:
    """One rendered shape: N ``sadc`` -> one ``knnfleet`` -> N ``ibuffer``."""

    def test_generated_config_parses(self):
        text = build_asdf_config_text(["slave01", "slave02"], ScenarioConfig())
        specs = parse_config(text)
        types = {spec.module_type for spec in specs}
        assert {
            "sadc",
            "knnfleet",
            "ibuffer",
            "analysis_bb",
            "hadoop_log",
            "analysis_wb",
            "alarm_union",
            "print",
        } <= types
        assert "knn" not in types

    def test_one_blackbox_chain_per_node(self):
        specs = parse_config(
            build_asdf_config_text(["a", "b", "c"], ScenarioConfig())
        )
        for module_type, prefix in (("sadc", "sadc"), ("ibuffer", "buf")):
            assert [
                s.instance_id for s in specs if s.module_type == module_type
            ] == [f"{prefix}_a", f"{prefix}_b", f"{prefix}_c"]

    def test_fleet_knn_swaps_per_node_chains_for_one_instance(self):
        nodes = ["a", "b", "c"]
        specs = parse_config(build_asdf_config_text(nodes, ScenarioConfig()))
        (fleet,) = [s for s in specs if s.module_type == "knnfleet"]
        assert fleet.instance_id == "onenn"
        assert [(i.instance_id, i.output_name) for i in fleet.inputs] == [
            (f"sadc_{node}", "vector") for node in nodes
        ]
        assert [
            (s.inputs[0].instance_id, s.inputs[0].output_name)
            for s in specs
            if s.module_type == "ibuffer"
        ] == [("onenn", node) for node in nodes]

    def test_generated_config_lints_clean(self):
        text = build_asdf_config_text(
            ["slave01", "slave02", "slave03"], ScenarioConfig()
        )
        assert analyze_config(text) == []

    def test_parameters_flow_into_config(self):
        config = ScenarioConfig(bb_threshold=42.0, wb_k=1.5)
        text = build_asdf_config_text(["a"], config)
        assert "threshold = 42.0" in text
        assert "k = 1.5" in text


class TestFaultFreeRun:
    def test_produces_decisions_and_stats(self, tiny_model):
        result = run_scenario(small_config(), model=tiny_model)
        assert len(result.decisions_bb) > 0
        assert len(result.decisions_wb) > 0
        assert len(result.stats_bb) > 0
        assert result.truth.faulty_node is None

    def test_jobs_actually_ran(self, tiny_model):
        result = run_scenario(small_config(), model=tiny_model)
        assert result.jobs_completed > 0

    def test_latencies_none_without_fault(self, tiny_model):
        result = run_scenario(small_config(), model=tiny_model)
        assert result.latency_bb is None
        assert result.latency_wb is None


class TestFaultRun:
    def test_cpuhog_produces_problematic_windows(self, tiny_model):
        result = run_scenario(
            small_config(fault_name="CPUHog"), model=tiny_model
        )
        assert result.truth.faulty_node == "slave03"  # middle of 5
        positives = (
            result.counts_bb.true_positives + result.counts_bb.false_negatives
        )
        assert positives > 0

    def test_explicit_faulty_node_respected(self, tiny_model):
        result = run_scenario(
            small_config(fault_name="CPUHog", faulty_node="slave05"),
            model=tiny_model,
        )
        assert result.truth.faulty_node == "slave05"

    def test_unknown_faulty_node_is_rejected_before_the_run(self, tiny_model):
        config = small_config(fault_name="CPUHog", faulty_node="nosuch")
        with pytest.raises(ValueError, match=r"'nosuch'.*slave01.*slave05"):
            run_scenario(config, model=tiny_model)

    def test_decision_counts_match_across_detectors(self, tiny_model):
        result = run_scenario(
            small_config(fault_name="HADOOP-1036"), model=tiny_model
        )
        # Same node set scored the same number of rounds per detector.
        assert len(result.decisions_bb) % 5 == 0
        assert len(result.decisions_wb) % 5 == 0

    def test_keep_handles_exposes_core(self, tiny_model):
        result = run_scenario(
            small_config(), model=tiny_model, keep_handles=True
        )
        assert result.handles is not None
        assert "analysis_bb" in result.handles.core.instances
        result.handles.core.close()


class TestMergeDecisions:
    def test_or_semantics_on_overlap(self):
        primary = [WindowDecision("n", 0.0, 60.0, alarmed=False)]
        secondary = [WindowDecision("n", 30.0, 90.0, alarmed=True)]
        merged = merge_decisions(primary, secondary)
        assert merged[0].alarmed

    def test_non_overlapping_windows_do_not_merge(self):
        primary = [WindowDecision("n", 0.0, 60.0, alarmed=False)]
        secondary = [WindowDecision("n", 60.0, 120.0, alarmed=True)]
        assert not merge_decisions(primary, secondary)[0].alarmed

    def test_different_nodes_do_not_merge(self):
        primary = [WindowDecision("a", 0.0, 60.0, alarmed=False)]
        secondary = [WindowDecision("b", 0.0, 60.0, alarmed=True)]
        assert not merge_decisions(primary, secondary)[0].alarmed

    def test_already_alarmed_stays_alarmed(self):
        primary = [WindowDecision("a", 0.0, 60.0, alarmed=True)]
        assert merge_decisions(primary, [])[0].alarmed

    def test_grid_comes_from_primary(self):
        primary = [WindowDecision("a", 0.0, 60.0, alarmed=False)]
        secondary = [
            WindowDecision("a", 0.0, 30.0, alarmed=True),
            WindowDecision("a", 30.0, 60.0, alarmed=False),
        ]
        merged = merge_decisions(primary, secondary)
        assert len(merged) == 1
        assert merged[0].window_end == 60.0
