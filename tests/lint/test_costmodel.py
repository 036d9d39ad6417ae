"""Static cost model: DAG folding, the budget gate, window recompute.

The golden assertions double as the calibration contract: the two
analyses' estimates against ``bench/``'s traced stage-table rows, and
the generated deployment's total within 3x of the pipeline rate
measured in the committed ``BENCH_scale.json``.
"""

import json
import os

import pytest

from repro.experiments import ScenarioConfig, build_asdf_config_text
from repro.lint import estimate_config, estimate_specs
from repro.lint.costmodel import DEFAULT_TICK_BUDGET_MS

from .helpers import per_node_knn_text, slave_names

BENCH_SCALE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_scale.json"
)


def generated(slaves, **kwargs):
    config = ScenarioConfig(num_slaves=slaves, **kwargs)
    return build_asdf_config_text(slave_names(slaves), config)


def codes(report):
    return [d.code for d in report.diagnostics]


class TestBudgetGate:
    def test_fpt301_fires_when_the_estimate_exceeds_the_budget(self):
        report = estimate_config(per_node_knn_text(1000), budget_ms=50)
        assert "FPT301" in codes(report)
        assert report.total_ms_per_s > 50
        assert report.budget_ms == 50

    def test_fpt301_silent_within_budget(self):
        report = estimate_config(per_node_knn_text(10), budget_ms=1000)
        assert "FPT301" not in codes(report)

    def test_default_budget_is_one_tick_second(self):
        report = estimate_config(generated(3))
        assert report.budget_ms == DEFAULT_TICK_BUDGET_MS

    @pytest.mark.parametrize("budget", [0, -5.0, float("nan")])
    def test_non_positive_budget_is_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            estimate_config(generated(3), budget_ms=budget)
        with pytest.raises(ValueError, match="budget"):
            estimate_specs([], budget_ms=budget)

    def test_expanded_deployment_infers_fleet_size(self):
        assert estimate_config(generated(25)).fleet_size == 25
        assert estimate_config(per_node_knn_text(25)).fleet_size == 25

    def test_generated_n1000_deployment_is_strict_clean(self):
        assert codes(estimate_config(generated(1000))) == []

    def test_per_node_knn_deployment_fits_the_budget_at_n1000(self):
        """N ``[knn]`` instances pay N scheduler runs and N small-array
        numpy calls: the report's ``knn`` row is where a hand-written
        per-node config sees that, and it still fits the 1 s tick."""
        report = estimate_config(per_node_knn_text(1000))
        assert codes(report) == []
        rows = {name: (count, ms) for name, count, _, ms in report.by_type()}
        assert rows["knn"][0] == 1000
        assert rows["knn"][1] == max(ms for _, ms in rows.values())
        assert report.total_ms_per_s < DEFAULT_TICK_BUDGET_MS


def per_node_collection(slaves):
    """The generated deployment with one ``sadc`` and one ``ibuffer`` per
    node, as a hand-written config spells it."""
    nodes = slave_names(slaves)
    text = generated(slaves)
    head, tail = text[: text.index("[knnfleet]")], text[text.index("[knnfleet]"):]
    fleet, rest = tail[: tail.index("[ibuffer]")], tail[tail.index("[analysis_bb]"):]
    assert head.startswith("[sadc]") and fleet.startswith("[knnfleet]")
    lines = []
    for node in nodes:
        lines += ["[sadc]", f"id = sadc_{node}", f"nodes = {node}", ""]
        lines += ["[ibuffer]", f"id = buf_{node}",
                  f"input[input] = onenn.{node}", "size = 5", ""]
        fleet = fleet.replace(f"= sadc.{node}\n", f"= sadc_{node}.{node}\n")
        rest = rest.replace(f"= buf.{node}\n", f"= buf_{node}.{node}\n")
    return "\n".join(lines) + "\n" + fleet + rest


class TestFleetShapedCollection:
    def test_n1000_report(self):
        report = estimate_config(generated(1000))
        rows = {name: (count, ms) for name, count, _, ms in report.by_type()}
        assert report.fleet_size == 1000
        assert rows["sadc"] == (1, pytest.approx(16.0))
        assert rows["ibuffer"] == (1, pytest.approx(1.7))
        assert round(report.total_ms_per_s, 1) == 59.4

    @pytest.mark.parametrize("slaves", [3, 25, 1000])
    def test_one_instance_per_node_prices_the_same(self, slaves):
        fleet = estimate_config(generated(slaves))
        per_node = estimate_config(per_node_collection(slaves))
        assert codes(per_node) == codes(fleet)
        assert per_node.fleet_size == fleet.fleet_size == slaves
        fleet_rows = {name: ms for name, _, _, ms in fleet.by_type()}
        per_node_rows = {name: ms for name, count, _, ms in per_node.by_type()}
        assert per_node_rows == pytest.approx(fleet_rows)
        counts = {name: count for name, count, _, _ in per_node.by_type()}
        assert counts["sadc"] == counts["ibuffer"] == slaves


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

    ``bench/run.py --trace 1`` at PR 20, seed 3, the median of three
    traced runs, in microseconds per simulated second at 200 us/cu (how
    the facts' notes state them; the sliding rows with tracing's ~10 %
    taken off, as at PR 18, which read 44 / 61 and 149 / 156):
    ``fleet50`` prices the sample appends (50 peers, a round a minute),
    ``replay25_sliding`` the round (25 peers, window 60, a round every
    second), and both carry their own writes.  The estimate has to stay
    within a quarter of both, and FPT303 has to keep firing for the
    sliding deployment -- every window is still rescanned.
    """

    MEASURED_US_PER_S = {
        ("fleet50", "analysis_bb"): 43.0,
        ("fleet50", "analysis_wb"): 61.0,
        ("sliding25", "analysis_bb"): 128.0,
        ("sliding25", "analysis_wb"): 137.0,
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
