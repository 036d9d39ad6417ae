"""Golden lint: every configuration the repo ships analyzes clean.

If one of these fails, either a shipped config regressed or a new lint
check is too strict -- both are release blockers for ``repro lint``.
"""

import importlib.util
import os
import sys

import pytest

from repro.experiments import ScenarioConfig, build_asdf_config_text
from repro.faults import FAULT_NAMES
from repro.lint import analyze_config, contracts_for_registry
from repro.modules import standard_registry

from .helpers import per_node_knn_text

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)


def load_example(name):
    """Import an examples/ script as a module without running main()."""
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def assert_clean(text, registry=None, contracts=None):
    diagnostics = analyze_config(text, registry=registry, contracts=contracts)
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)


class TestGeneratedDeployment:
    @pytest.mark.parametrize("fault", [None] + list(FAULT_NAMES))
    def test_asdf_config_lints_clean_for_every_fault(self, fault):
        config = ScenarioConfig(num_slaves=5, fault_name=fault)
        nodes = [f"slave{i + 1:02d}" for i in range(5)]
        assert_clean(build_asdf_config_text(nodes, config))

    @pytest.mark.parametrize("slaves", [3, 10, 25])
    def test_asdf_config_lints_clean_at_any_scale(self, slaves):
        config = ScenarioConfig(num_slaves=slaves)
        nodes = [f"slave{i + 1:02d}" for i in range(slaves)]
        assert_clean(build_asdf_config_text(nodes, config))

    @pytest.mark.parametrize("fault", [None, "CPUHog"])
    def test_scoreboard_enabled_config_lints_clean(self, fault):
        config = ScenarioConfig(num_slaves=5, fault_name=fault)
        nodes = [f"slave{i + 1:02d}" for i in range(5)]
        text = build_asdf_config_text(nodes, config, scoreboard=True)
        assert "[scoreboard]" in text
        assert_clean(text)

    def test_fleet_knn_config_lints_clean(self):
        config = ScenarioConfig(num_slaves=5)
        nodes = [f"slave{i + 1:02d}" for i in range(5)]
        text = build_asdf_config_text(nodes, config)
        assert "[knnfleet]" in text
        assert "[knn]" not in text
        assert_clean(text)

    def test_per_node_knn_config_still_lints_clean(self):
        """Hand-written configs and older flight archives carry it."""
        text = per_node_knn_text(5)
        assert text.count("[knn]") == 5 and "[knnfleet]" not in text
        assert_clean(text)

    def test_scoreboard_section_is_opt_in(self):
        # Observatory-less deployments must keep generating the exact
        # pre-observatory text (byte parity for archives and goldens).
        config = ScenarioConfig(num_slaves=5)
        nodes = [f"slave{i + 1:02d}" for i in range(5)]
        assert "scoreboard" not in build_asdf_config_text(nodes, config)


class TestExampleConfigs:
    def test_quickstart_config(self):
        quickstart = load_example("quickstart")
        registry = standard_registry()
        registry.register(quickstart.LatencyProbe)
        registry.register(quickstart.ThresholdDetector)
        assert_clean(
            quickstart.CONFIG,
            registry=registry,
            contracts=contracts_for_registry(registry),
        )

    def test_offline_collection_config(self):
        offline = load_example("offline_collection")
        text = offline.build_config_text(
            ["slave01", "slave02", "slave03"], "/tmp/asdf-offline.csv"
        )
        assert_clean(text)

    def test_active_mitigation_config(self):
        mitigation = load_example("active_mitigation")
        nodes = [f"slave{i + 1:02d}" for i in range(8)]
        text = mitigation.build_config_text(
            nodes, ScenarioConfig(num_slaves=8)
        )
        assert_clean(text)
