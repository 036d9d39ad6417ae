"""The run has one scorer: the observatory's score view.

The view is computed on read from the alarms and decisions the ``print``
sinks handed over, with the same ``score_decisions`` /
``fingerpointing_latency`` calls ``run_scenario`` makes; the scenario
tests below hold it equal to the ``ScenarioResult`` of the same run.
"""

import json

import numpy as np
import pytest

from repro.analysis.metrics import (
    Alarm,
    GroundTruth,
    WindowDecision,
    score_decisions,
)
from repro.experiments import (
    ScenarioConfig,
    build_asdf_config_text,
    run_scenario,
    scenario,
    shared_model,
)
from repro.obsv import SCOREBOARD_FORMAT, Observatory


def make_decisions():
    """Node-window decisions spanning hits, misses and false alarms."""
    return [
        WindowDecision("slave01", 240.0, 300.0, alarmed=False),  # TN (pre)
        WindowDecision("slave01", 300.0, 360.0, alarmed=True),   # TP
        WindowDecision("slave01", 360.0, 420.0, alarmed=False),  # FN
        WindowDecision("slave02", 300.0, 360.0, alarmed=True),   # FP
        WindowDecision("slave02", 360.0, 420.0, alarmed=False),  # TN
    ]


TRUTH = GroundTruth(faulty_node="slave01", inject_time=300.0, clear_time=None)


def observatory_with(fault, truth):
    observatory = Observatory()
    observatory.register_ground_truth(fault, truth)
    return observatory


def deliver(observatory, alarm, output="analysis_bb.alarms"):
    """What a ``print`` sink does with one alarm off ``output``."""
    return observatory.observe_alarm(
        alarm, alarm.via + (output,), alarm.time, "BlackBoxAlarm"
    )


def counts_row(counts):
    return {
        "tp": counts.true_positives, "fp": counts.false_positives,
        "fn": counts.false_negatives, "tn": counts.true_negatives,
    }


class TestAlarms:
    def test_covering_alarm_is_true_and_charged_with_latency(self):
        observatory = observatory_with("CPUHog", TRUTH)
        deliver(observatory, Alarm(time=360.0, node="slave01"))
        row = observatory.scoreboard_obj()["alarms"]["analysis_bb.alarms"]
        assert row["true_alarms"] == 1
        assert row["false_alarms"] == 0
        assert row["fingerpointing_latency_s"] == 60.0

    def test_uncovered_alarm_is_false_on_primary_fault(self):
        observatory = observatory_with("CPUHog", TRUTH)
        # Wrong node, and a pre-injection alarm on the right node.
        deliver(observatory, Alarm(time=360.0, node="slave02"))
        deliver(observatory, Alarm(time=100.0, node="slave01"))
        view = observatory.scoreboard_obj()
        assert view["fault"] == "CPUHog"
        row = view["alarms"]["analysis_bb.alarms"]
        assert row["false_alarms"] == 2
        assert row["true_alarms"] == 0
        assert row["fingerpointing_latency_s"] is None

    def test_fault_free_run_charges_fault_free_label(self):
        observatory = observatory_with(None, GroundTruth(faulty_node=None))
        deliver(observatory, Alarm(time=50.0, node="slave01"))
        view = observatory.scoreboard_obj()
        assert view["fault"] == "fault-free"
        assert view["truth"]["node"] is None
        assert view["alarms"]["analysis_bb.alarms"]["false_alarms"] == 1

    def test_detection_after_clear_still_counts(self):
        observatory = observatory_with("DiskHog", GroundTruth(
            faulty_node="slave03", inject_time=300.0, clear_time=400.0
        ))
        deliver(observatory, Alarm(time=420.0, node="slave03"))
        row = observatory.scoreboard_obj()["alarms"]["analysis_bb.alarms"]
        assert row["true_alarms"] == 1
        assert row["fingerpointing_latency_s"] == 120.0

    def test_histogram_label_is_the_fault_only_for_true_alarms(self):
        observatory = observatory_with("CPUHog", TRUTH)
        tracer = observatory.tracer
        tracer.note_remote_write("analysis_bb.alarms", sim=300.0, wall=1.0)
        deliver(observatory, Alarm(time=360.0, node="slave01"))
        deliver(observatory, Alarm(time=360.0, node="slave02"))
        text = observatory.telemetry.metrics.render_prometheus()
        for fault in ("CPUHog", "fault-free"):
            assert (
                f'asdf_alarm_sim_latency_seconds_count{{fault="{fault}",'
                f'stage="total"}} 1' in text
            ), fault


class TestDecisions:
    def test_online_counts_match_offline_scorer(self):
        observatory = observatory_with("CPUHog", TRUTH)
        decisions = make_decisions()
        observatory.observe_decisions("analysis_bb.decisions", decisions)
        row = observatory.scoreboard_obj()["decisions"]["analysis_bb.decisions"]
        assert {k: row[k] for k in ("tp", "fp", "fn", "tn")} == counts_row(
            score_decisions(decisions, TRUTH)
        )
        assert observatory.health_obj()["decisions_seen"] == len(decisions)

    def test_detectors_are_tallied_independently(self):
        observatory = observatory_with("CPUHog", TRUTH)
        observatory.observe_decisions(
            "bb", [WindowDecision("slave01", 300.0, 360.0, alarmed=True)]
        )
        observatory.observe_decisions(
            "wb", [WindowDecision("slave01", 300.0, 360.0, alarmed=False)]
        )
        rows = observatory.scoreboard_obj()["decisions"]
        assert (rows["bb"]["tp"], rows["bb"]["fn"]) == (1, 0)
        assert (rows["wb"]["tp"], rows["wb"]["fn"]) == (0, 1)


class TestSnapshotAndEmission:
    def make_observatory(self):
        observatory = observatory_with("CPUHog", TRUTH)
        deliver(observatory, Alarm(time=360.0, node="slave01"))
        observatory.observe_decisions("analysis_bb.decisions", make_decisions())
        return observatory

    def test_snapshot_shape(self):
        snap = self.make_observatory().scoreboard_obj()
        assert snap["format"] == SCOREBOARD_FORMAT == "asdf-scoreboard/2"
        assert snap["fault"] == "CPUHog"
        assert snap["truth"] == {
            "node": "slave01", "inject_time": 300.0, "clear_time": None,
        }
        row = snap["alarms"]["analysis_bb.alarms"]
        assert row["alarms"] == row["true_alarms"] == 1
        # Delivered outside a traced core: no latency, explicitly.
        assert row["unmeasured_alarms"] == 1
        assert row["sample_to_alarm_sim_s"] == {
            "count": 0, "p50": None, "p95": None, "max": None,
        }
        detector = snap["decisions"]["analysis_bb.decisions"]
        assert {"tp", "fp", "fn", "tn", "balanced_accuracy",
                "false_positive_rate"} == set(detector)
        assert detector["tp"] == 1

    def test_write_scoreboard_json(self, tmp_path):
        observatory = self.make_observatory()
        path = observatory.write_scoreboard(directory=str(tmp_path))
        assert path == str(tmp_path / "BENCH_scoreboard.json")
        doc = json.loads((tmp_path / "BENCH_scoreboard.json").read_text())
        assert doc["format"] == SCOREBOARD_FORMAT
        assert doc["alarms"]["analysis_bb.alarms"]["true_alarms"] == 1
        assert isinstance(doc["created_unix"], int)

    def test_write_scoreboard_defaults_to_working_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        path = self.make_observatory().write_scoreboard()
        assert (tmp_path / path).samefile(tmp_path / "BENCH_scoreboard.json")


# -- one scorer, proven by equality ------------------------------------------

CPUHOG = ScenarioConfig(
    num_slaves=6, duration_s=480.0, seed=7,
    fault_name="CPUHog", inject_time=120.0,
)
FAULT_FREE = ScenarioConfig(num_slaves=6, duration_s=480.0, seed=7)


@pytest.fixture(scope="module")
def model():
    return shared_model(CPUHOG, training_duration_s=300.0)


def assert_view_equals_result(observatory, result):
    view = observatory.scoreboard_obj()
    decisions, alarms = view["decisions"], view["alarms"]
    assert set(decisions) == {"analysis_bb.decisions", "analysis_wb.decisions"}
    for output, counts in (("analysis_bb.decisions", result.counts_bb),
                           ("analysis_wb.decisions", result.counts_wb)):
        row = decisions[output]
        assert {k: row[k] for k in ("tp", "fp", "fn", "tn")} == \
            counts_row(counts), output
        assert row["balanced_accuracy"] == round(counts.balanced_accuracy, 4)
    for output, delivered, latency in (
        ("analysis_bb.alarms", result.alarms_bb, result.latency_bb),
        ("analysis_wb.alarms", result.alarms_wb, result.latency_wb),
        ("combined.alarms", result.alarms_all, result.latency_all),
    ):
        # An output that delivered no alarm has no row.
        row = alarms.get(output, {"alarms": 0, "fingerpointing_latency_s": None})
        assert row["alarms"] == len(delivered), output
        assert row["fingerpointing_latency_s"] == latency, output
    # One record per delivery, across the three print sinks.
    records = observatory.records
    assert len(records) == (
        len(result.alarms_bb) + len(result.alarms_wb) + len(result.alarms_all)
    )
    assert {r.sink for r in records} <= {
        "BlackBoxAlarm", "WhiteBoxAlarm", "CombinedAlarm",
    }
    return view


def result_key(result):
    """Everything a ScenarioResult carries, but its handles (the stats'
    arrays as bytes, so they compare exactly)."""

    def stats(rounds):
        return [
            {key: value.tobytes() if isinstance(value, np.ndarray) else value
             for key, value in entry.items()}
            for entry in rounds
        ]

    return (
        result.alarms_bb, result.alarms_wb, result.alarms_all,
        result.decisions_bb, result.decisions_wb, result.decisions_all,
        stats(result.stats_bb), stats(result.stats_wb),
        result.counts_bb, result.counts_wb, result.counts_all,
        result.latency_bb, result.latency_wb, result.latency_all,
        result.jobs_completed, result.truth,
    )


class TestOneScorer:
    def test_cpuhog_run_view_equals_the_scenario_result(self, model):
        observatory = Observatory()
        result = run_scenario(CPUHOG, model=model, observatory=observatory)
        assert result.latency_all is not None, "the run has to fingerpoint"
        view = assert_view_equals_result(observatory, result)
        assert view["fault"] == "CPUHog"
        assert set(view["alarms"]) == {
            "analysis_bb.alarms", "analysis_wb.alarms", "combined.alarms",
        }
        combined = view["alarms"]["combined.alarms"]
        assert combined["true_alarms"] > 0
        assert combined["sample_to_alarm_wall_s"]["p95"] is not None

    def test_fault_free_run_view_equals_the_scenario_result(self, model):
        observatory = Observatory()
        result = run_scenario(FAULT_FREE, model=model, observatory=observatory)
        view = assert_view_equals_result(observatory, result)
        assert view["fault"] == "fault-free"
        assert all(row["true_alarms"] == 0 for row in view["alarms"].values())

    def test_results_and_config_identical_without_an_observatory(
        self, model, monkeypatch
    ):
        rendered = []

        def spy(nodes, config):
            rendered.append(build_asdf_config_text(nodes, config))
            return rendered[-1]

        monkeypatch.setattr(scenario, "build_asdf_config_text", spy)
        plain = run_scenario(CPUHOG, model=model)
        observed = run_scenario(CPUHOG, model=model, observatory=Observatory())
        assert len(rendered) == 2 and rendered[0] == rendered[1]
        assert result_key(observed) == result_key(plain)
