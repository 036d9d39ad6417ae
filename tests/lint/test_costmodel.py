"""Static cost model: DAG folding, budget gates, vectorization lints.

The golden assertions double as the calibration contract: the estimate
for the generated deployment must stay within 3x of the pipeline rate
measured in the committed ``BENCH_scale.json``.
"""

import json
import os

import pytest

from repro.experiments import ScenarioConfig, build_asdf_config_text
from repro.lint import CostFact, CostTerm, estimate_config, scan_hot_modules
from repro.lint.contracts import ContractRegistry, ModuleContract
from repro.lint.costmodel import DEFAULT_TICK_BUDGET_MS, FLEET_THRESHOLD

from .helpers import per_node_knn_text, slave_names

BENCH_SCALE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_scale.json"
)


def generated(slaves, **kwargs):
    config = ScenarioConfig(num_slaves=slaves, **kwargs)
    return build_asdf_config_text(slave_names(slaves), config)


def codes(report):
    return [d.code for d in report.diagnostics]


TEMPLATE = """\
[scale]
n = {n}
tick_budget_ms = {budget}

[sadc]
id = sadc_m01
node = m01
interval = 1.0

[knn]
id = onenn_m01
input[input] = sadc_m01.vector
model = bb_model
k = 1

[print]
id = print_alarms
input[input] = onenn_m01.output0
"""


class TestBudgetGate:
    def test_fpt301_fires_when_the_estimate_exceeds_the_budget(self):
        report = estimate_config(TEMPLATE.format(n=1000, budget=50))
        assert "FPT301" in codes(report)
        assert report.total_ms_per_s > 50
        assert report.budget_ms == 50

    def test_fpt301_silent_within_budget(self):
        report = estimate_config(TEMPLATE.format(n=10, budget=1000))
        assert "FPT301" not in codes(report)

    def test_cli_budget_overrides_the_scale_section(self):
        text = TEMPLATE.format(n=10, budget=1000)
        report = estimate_config(text, budget_ms=0.1)
        assert report.budget_ms == 0.1
        assert "FPT301" in codes(report)

    def test_default_budget_is_one_tick_second(self):
        report = estimate_config(generated(3))
        assert report.budget_ms == DEFAULT_TICK_BUDGET_MS

    def test_scale_section_sets_the_template_fleet_size(self):
        report = estimate_config(TEMPLATE.format(n=500, budget=1000))
        assert report.template
        assert report.fleet_size == 500

    def test_expanded_deployment_infers_fleet_size(self):
        report = estimate_config(generated(25))
        assert not report.template
        assert report.fleet_size == 25


class TestFleetEquivalent:
    def test_fpt302_fires_on_per_node_knn_at_fleet_scale(self):
        report = estimate_config(TEMPLATE.format(n=1000, budget=1000))
        hits = [d for d in report.diagnostics if d.code == "FPT302"]
        assert len(hits) == 1
        assert "knnfleet" in hits[0].message

    def test_fpt302_fires_on_the_expanded_per_node_deployment(self):
        """...which nevertheless fits the 1 s budget at N=1000."""
        report = estimate_config(per_node_knn_text(1000))
        assert "FPT302" in codes(report)
        assert "FPT301" not in codes(report)
        assert report.total_ms_per_s < DEFAULT_TICK_BUDGET_MS

    def test_fpt302_silent_on_the_fleet_batched_variant(self):
        """The generated N=1000 deployment is ``--strict``-clean as is."""
        assert codes(estimate_config(generated(1000))) == []

    def test_fpt302_silent_below_the_fleet_threshold(self):
        report = estimate_config(per_node_knn_text(FLEET_THRESHOLD - 1))
        assert "FPT302" not in codes(report)

    def test_knnfleet_cost_dominates_per_node_knn_at_scale(self):
        plain = estimate_config(per_node_knn_text(200))
        fleet = estimate_config(generated(200))
        assert fleet.total_ms_per_s < plain.total_ms_per_s / 2


class TestWindowRecompute:
    def test_fpt303_fires_when_slide_is_smaller_than_window(self):
        text = generated(3, window=60, slide=10)
        report = estimate_config(text)
        hits = [d for d in report.diagnostics if d.code == "FPT303"]
        assert hits, codes(report)
        # Anchored at a slide parameter line so the fix site is obvious.
        for diag in hits:
            assert diag.line > 0

    def test_fpt303_silent_for_tumbling_windows(self):
        report = estimate_config(generated(3, window=60, slide=60))
        assert "FPT303" not in codes(report)


class TestAnalysisFactsFromTheStageTable:
    """The two analyses' cost facts against the runs they were read from.

    ``bench/run.py --trace 1`` at PR 18, seed 3, in microseconds per
    simulated second at 200 us/cu with tracing's ~10 % taken off (how
    the facts' notes state them): ``fleet50`` prices the sample appends
    (50 peers, a round a minute), ``replay25_sliding`` the round (25
    peers, window 60, a round every second).  The estimate has to stay
    within a quarter of both, and FPT303 has to keep firing for the
    sliding deployment -- every window is still rescanned.
    """

    MEASURED_US_PER_S = {
        ("fleet50", "analysis_bb"): 44.0,
        ("fleet50", "analysis_wb"): 61.0,
        ("sliding25", "analysis_bb"): 149.0,
        ("sliding25", "analysis_wb"): 156.0,
    }
    DEPLOYMENTS = {
        "fleet50": dict(slaves=50),
        "sliding25": dict(slaves=25, window=60, slide=1, ibuffer_size=1),
    }

    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_estimates_within_a_quarter_of_the_traced_rows(self, deployment):
        report = estimate_config(generated(**self.DEPLOYMENTS[deployment]))
        estimated = {name: ms * 1000.0 for name, _, _, ms in report.by_type()}
        for module in ("analysis_bb", "analysis_wb"):
            measured = self.MEASURED_US_PER_S[deployment, module]
            assert 0.75 * measured <= estimated[module] <= 1.25 * measured, (
                module, estimated[module], measured,
            )

    def test_sliding_deployment_is_flagged_but_fits_the_budget(self):
        report = estimate_config(generated(**self.DEPLOYMENTS["sliding25"]))
        flagged = {d.instance for d in report.diagnostics if d.code == "FPT303"}
        assert flagged == {"analysis_bb", "analysis_wb"}
        assert "FPT301" not in codes(report)


class TestGoldenCostReports:
    """The generated deployment's estimate vs the committed bench."""

    @pytest.fixture(scope="class")
    def bench_rows(self):
        with open(BENCH_SCALE, encoding="utf-8") as fh:
            doc = json.load(fh)
        return {
            (row["num_slaves"], row["engine"]): row for row in doc["rows"]
        }

    def measured_ms_per_s(self, row):
        return row["pipeline_wall_s"] / row["pipeline_seconds"] * 1000.0

    @pytest.mark.parametrize("slaves", [50, 1000])
    def test_per_node_estimate_within_3x_of_scalar_pipeline(
        self, bench_rows, slaves
    ):
        row = bench_rows.get((slaves, "scalar"))
        if row is None:
            pytest.skip(f"no scalar bench row at N={slaves}")
        measured = self.measured_ms_per_s(row)
        report = estimate_config(per_node_knn_text(slaves))
        assert measured / 3 <= report.total_ms_per_s <= measured * 3

    def test_fleet_estimate_within_3x_of_vec_pipeline(self, bench_rows):
        row = bench_rows.get((1000, "vec"))
        if row is None:
            pytest.skip("no vec bench row at N=1000")
        measured = self.measured_ms_per_s(row)
        report = estimate_config(generated(1000))
        assert measured / 3 <= report.total_ms_per_s <= measured * 3

    def test_shipped_deployments_fit_the_real_time_budget(self):
        for slaves in (3, 10, 25, 50):
            report = estimate_config(generated(slaves))
            assert "FPT301" not in codes(report), slaves
            assert report.total_ms_per_s < DEFAULT_TICK_BUDGET_MS

    def test_report_json_shape(self):
        report = estimate_config(generated(10))
        doc = report.to_json()
        assert doc["fleet_size"] == 10
        assert doc["total_ms_per_s"] == pytest.approx(
            report.total_ms_per_s, abs=0.001
        )
        assert 0 <= doc["budget_used"]
        assert doc["types"], doc
        share = sum(entry["ms_per_s"] for entry in doc["types"])
        assert share == pytest.approx(report.total_ms_per_s, rel=0.01)

    def test_render_mentions_fleet_size_and_budget(self):
        text = estimate_config(generated(10)).render()
        assert "N=10" in text
        assert "budget" in text


class _HotFixture:
    """Hot module with every FPT31x hazard (scanned via its source)."""

    type_name = "hotfixture"

    def init(self):
        for node in self.nodes:
            self.setup(node)  # init() is exempt: runs once per deployment

    def run(self, reason):
        for node in self.nodes:
            values = list(self.backlog[node])
            self.emit(node, values)
        rows = [self.window[node] for node in self.nodes]
        return rows


class _ColdFixture:
    """Same shape, but its contract carries no hot cost fact."""

    type_name = "coldfixture"

    def run(self, reason):
        for node in self.nodes:
            self.emit(node, list(self.backlog[node]))


def _fixture_setup(hot):
    class _Registry:
        def __init__(self, classes):
            self._classes = {c.type_name: c for c in classes}

        def __iter__(self):
            return iter(sorted(self._classes))

        def resolve(self, name):
            return self._classes[name]

    contracts = ContractRegistry()
    fact = CostFact(terms=(CostTerm(1.0, per="sample"),), hot=hot)
    for cls in (_HotFixture, _ColdFixture):
        contracts.register(ModuleContract(type_name=cls.type_name, cost=fact))
    return _Registry([_HotFixture, _ColdFixture]), contracts


class TestHotModuleScan:
    def test_all_three_codes_fire_on_the_hot_fixture(self):
        registry, contracts = _fixture_setup(hot=True)
        found = scan_hot_modules(registry=registry, contracts=contracts)
        assert {d.code for d in found} == {"FPT310", "FPT311", "FPT312"}

    def test_init_loops_are_exempt(self):
        registry, contracts = _fixture_setup(hot=True)
        found = scan_hot_modules(registry=registry, contracts=contracts)
        init_line = _HotFixture.init.__code__.co_firstlineno
        run_line = _HotFixture.run.__code__.co_firstlineno
        assert all(d.line >= run_line for d in found), found
        assert all(d.line > init_line for d in found)

    def test_cold_modules_are_not_scanned(self):
        registry, contracts = _fixture_setup(hot=False)
        assert scan_hot_modules(registry=registry, contracts=contracts) == []

    def test_standard_registry_scan_is_fully_justified(self):
        # Every remaining hazard in the shipped hot modules carries an
        # inline noqa justification (gather/scatter and fallback paths).
        assert scan_hot_modules() == []
