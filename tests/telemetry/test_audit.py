"""Tests for the append-only alarm audit trail."""

import json

from repro.telemetry import AlarmAuditTrail


def make_trail() -> AlarmAuditTrail:
    trail = AlarmAuditTrail()
    trail.record(time=300.0, node="slave05", source="blackbox",
                 detail="L1 deviation 66.2 > 65.0", sink="BlackBoxAlarm",
                 inputs=("analysis_bb.alarms",))
    trail.record(time=360.0, node="slave05", source="whitebox",
                 detail="|z| 2.4 > 2.0", sink="WhiteBoxAlarm",
                 inputs=("analysis_wb.alarms",))
    trail.record(time=420.0, node="slave02", source="blackbox",
                 detail="", sink="BlackBoxAlarm")
    return trail


class TestTrail:
    def test_records_append_in_order(self):
        trail = make_trail()
        assert len(trail) == 3
        assert [r.node for r in trail.records] == ["slave05", "slave05", "slave02"]

    def test_records_view_is_immutable(self):
        trail = make_trail()
        view = trail.records
        assert isinstance(view, tuple)

    def test_for_node_and_culprits(self):
        trail = make_trail()
        assert len(trail.for_node("slave05")) == 2
        assert trail.culprits() == ["slave05", "slave02"]

    def test_describe_names_culprit_threshold_and_sink(self):
        record = make_trail().records[0]
        text = record.describe()
        assert "culprit=slave05" in text
        assert "66.2 > 65.0" in text
        assert "BlackBoxAlarm" in text
        assert "analysis_bb.alarms" in text

    def test_jsonl_round_trips(self, tmp_path):
        trail = make_trail()
        path = tmp_path / "audit.jsonl"
        trail.write_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["node"] == "slave05"
        assert rows[0]["inputs"] == ["analysis_bb.alarms"]
        assert rows[1]["detail"] == "|z| 2.4 > 2.0"

    def test_render_text_limit(self):
        trail = make_trail()
        text = trail.render_text(limit=1)
        assert "and 2 more" in text


class TestFiltering:
    def test_filtered_tail(self):
        trail = make_trail()
        records = trail.filtered(tail=2)
        assert [r.time for r in records] == [360.0, 420.0]
        assert trail.filtered(tail=0) == []

    def test_filtered_since(self):
        trail = make_trail()
        records = trail.filtered(since=360.0)  # boundary is inclusive
        assert [r.time for r in records] == [360.0, 420.0]
        assert trail.filtered(since=1000.0) == []

    def test_filtered_since_then_tail(self):
        trail = make_trail()
        records = trail.filtered(tail=1, since=301.0)
        assert [r.time for r in records] == [420.0]

    def test_no_filters_returns_everything(self):
        trail = make_trail()
        assert len(trail.filtered()) == 3

    def test_render_jsonl_filters(self):
        trail = make_trail()
        lines = trail.render_jsonl(since=400.0).splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["time"] == 420.0

    def test_write_jsonl_filters(self, tmp_path):
        trail = make_trail()
        path = tmp_path / "tail.jsonl"
        trail.write_jsonl(str(path), tail=2)
        assert len(path.read_text().splitlines()) == 2
