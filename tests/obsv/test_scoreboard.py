"""Unit tests for the online ground-truth scoreboard."""

import json

from repro.analysis.metrics import (
    Alarm,
    GroundTruth,
    WindowDecision,
    score_decisions,
)
from repro.obsv import SCOREBOARD_FORMAT, Scoreboard, percentile, write_scoreboard_json


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


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50.0) is None

    def test_single_value(self):
        assert percentile([7.0], 50.0) == 7.0
        assert percentile([7.0], 95.0) == 7.0

    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50.0) == 20.0
        assert percentile(values, 95.0) == 40.0
        assert percentile(values, 25.0) == 10.0


class TestAlarms:
    def test_covering_alarm_is_true_and_charged_with_latency(self):
        board = Scoreboard()
        board.register_truth("CPUHog", TRUTH)
        fault = board.observe_alarm(Alarm(time=360.0, node="slave01"))
        assert fault == "CPUHog"
        score = board.fault_scores()["CPUHog"]
        assert score.true_alarms == 1
        assert score.detection_latencies_s == [60.0]
        assert score.fingerpointing_latency_s == 60.0

    def test_uncovered_alarm_is_false_on_primary_fault(self):
        board = Scoreboard()
        board.register_truth("CPUHog", TRUTH)
        # Wrong node, and a pre-injection alarm on the right node.
        board.observe_alarm(Alarm(time=360.0, node="slave02"))
        board.observe_alarm(Alarm(time=100.0, node="slave01"))
        score = board.fault_scores()["CPUHog"]
        assert score.false_alarms == 2
        assert score.true_alarms == 0
        assert score.detection_latencies_s == []

    def test_fault_free_run_charges_fault_free_label(self):
        board = Scoreboard()
        board.register_truth(None, GroundTruth(faulty_node=None))
        fault = board.observe_alarm(Alarm(time=50.0, node="slave01"))
        assert fault == "fault-free"
        assert board.fault_scores()["fault-free"].false_alarms == 1

    def test_detection_after_clear_still_counts(self):
        board = Scoreboard()
        board.register_truth(
            "DiskHog",
            GroundTruth(
                faulty_node="slave03", inject_time=300.0, clear_time=400.0
            ),
        )
        fault = board.observe_alarm(Alarm(time=420.0, node="slave03"))
        assert fault == "DiskHog"
        assert board.fault_scores()["DiskHog"].detection_latencies_s == [120.0]


class TestDecisions:
    def test_online_counts_match_offline_scorer(self):
        board = Scoreboard()
        board.register_truth("CPUHog", TRUTH)
        decisions = make_decisions()
        board.observe_decisions("analysis_bb.decisions", decisions)
        offline = score_decisions(decisions, TRUTH)
        counts = board.fault_scores()["CPUHog"].detectors[
            "analysis_bb.decisions"
        ]
        assert counts.true_positives == offline.true_positives
        assert counts.false_positives == offline.false_positives
        assert counts.false_negatives == offline.false_negatives
        assert counts.true_negatives == offline.true_negatives
        assert board.decisions_seen == len(decisions)

    def test_detectors_are_tallied_independently(self):
        board = Scoreboard()
        board.register_truth("CPUHog", TRUTH)
        board.observe_decisions(
            "bb", [WindowDecision("slave01", 300.0, 360.0, alarmed=True)]
        )
        board.observe_decisions(
            "wb", [WindowDecision("slave01", 300.0, 360.0, alarmed=False)]
        )
        score = board.fault_scores()["CPUHog"]
        assert score.detectors["bb"].true_positives == 1
        assert score.detectors["wb"].false_negatives == 1
        totals = board.totals()
        assert totals.true_positives == 1
        assert totals.false_negatives == 1


class TestSnapshotAndEmission:
    def make_board(self):
        board = Scoreboard()
        board.register_truth("CPUHog", TRUTH)
        board.observe_alarm(Alarm(time=360.0, node="slave01"))
        board.observe_decisions("analysis_bb.decisions", make_decisions())
        return board

    def test_snapshot_shape(self):
        snap = self.make_board().snapshot()
        assert snap["format"] == SCOREBOARD_FORMAT
        assert snap["alarms_seen"] == 1
        assert snap["truths"][0]["node"] == "slave01"
        fault = snap["faults"]["CPUHog"]
        assert fault["true_alarms"] == 1
        assert fault["detection_latency_s"]["p50"] == 60.0
        detector = fault["detectors"]["analysis_bb.decisions"]
        assert {"tp", "fp", "fn", "tn", "balanced_accuracy"} <= set(detector)
        assert snap["totals"]["tp"] == 1

    def test_write_scoreboard_json(self, tmp_path):
        path = write_scoreboard_json(self.make_board(), directory=str(tmp_path))
        assert path == str(tmp_path / "BENCH_scoreboard.json")
        doc = json.loads((tmp_path / "BENCH_scoreboard.json").read_text())
        assert doc["format"] == SCOREBOARD_FORMAT
        assert doc["faults"]["CPUHog"]["true_alarms"] == 1
        assert isinstance(doc["created_unix"], int)

    def test_write_scoreboard_defaults_to_working_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        path = write_scoreboard_json(self.make_board())
        assert (tmp_path / path).samefile(tmp_path / "BENCH_scoreboard.json")
