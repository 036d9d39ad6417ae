"""The alarm audit: the observatory's one record per delivered alarm.

What ``demo --audit`` writes and ``/alarms`` serves -- why each verdict
fired, which sink took it over which chain -- is the record list an
:class:`~repro.obsv.Observatory` keeps as ``print`` sinks hand it alarms.
"""

import json

from repro.analysis.metrics import Alarm
from repro.obsv import Observatory


def make_trail() -> Observatory:
    observatory = Observatory()
    for alarm, output, sink in (
        (Alarm(time=300.0, node="slave05", source="blackbox",
               detail="L1 deviation 66.2 > 65.0"),
         "analysis_bb.alarms", "BlackBoxAlarm"),
        (Alarm(time=360.0, node="slave05", source="whitebox",
               detail="|z| 2.4 > 2.0"),
         "analysis_wb.alarms", "WhiteBoxAlarm"),
        (Alarm(time=420.0, node="slave02", source="blackbox"),
         "analysis_bb.alarms", "BlackBoxAlarm"),
    ):
        observatory.observe_alarm(
            alarm, alarm.via + (output,), alarm.time, sink
        )
    return observatory


class TestTrail:
    def test_records_append_in_order(self):
        trail = make_trail()
        assert len(trail.records) == 3
        assert [r.node for r in trail.records] == ["slave05", "slave05", "slave02"]

    def test_records_view_is_immutable(self):
        trail = make_trail()
        view = trail.records
        assert isinstance(view, tuple)

    def test_for_node_and_culprits(self):
        trail = make_trail()
        assert [r.alarm_time for r in trail.records if r.node == "slave05"] \
            == [300.0, 360.0]
        assert "culprits: slave05, slave02" in trail.summary_text()

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
        assert trail.write_alarms_jsonl(str(path)) == 3
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["node"] == "slave05"
        assert rows[0]["sink"] == "BlackBoxAlarm"
        assert rows[0]["delivered"] == ["analysis_bb.alarms"]
        assert rows[1]["detail"] == "|z| 2.4 > 2.0"
        assert rows == [r.to_json_obj() for r in trail.records]

    def test_render_text_limit(self):
        trail = make_trail()
        text = trail.summary_text(limit=1)
        assert "and 2 more" in text


class TestFiltering:
    def test_filtered_tail(self):
        trail = make_trail()
        records = trail.filtered(tail=2)
        assert [r.alarm_time for r in records] == [360.0, 420.0]
        assert trail.filtered(tail=0) == []
        # A tail longer than the trail is the whole trail.
        for tail in (3, 4, 5, 100):
            assert [r.alarm_time for r in trail.filtered(tail=tail)] == \
                [300.0, 360.0, 420.0], tail

    def test_filtered_since(self):
        trail = make_trail()
        records = trail.filtered(since=360.0)  # boundary is inclusive
        assert [r.alarm_time for r in records] == [360.0, 420.0]
        assert trail.filtered(since=1000.0) == []

    def test_filtered_since_then_tail(self):
        trail = make_trail()
        records = trail.filtered(tail=1, since=301.0)
        assert [r.alarm_time for r in records] == [420.0]
        records = trail.filtered(tail=5, since=301.0)
        assert [r.alarm_time for r in records] == [360.0, 420.0]

    def test_no_filters_returns_everything(self):
        trail = make_trail()
        assert len(trail.filtered()) == 3

    def test_render_jsonl_filters(self, tmp_path):
        trail = make_trail()
        path = tmp_path / "since.jsonl"
        assert trail.write_alarms_jsonl(str(path), since=400.0) == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["alarm_time"] == 420.0

    def test_write_jsonl_filters(self, tmp_path):
        trail = make_trail()
        path = tmp_path / "tail.jsonl"
        trail.write_alarms_jsonl(str(path), tail=2)
        assert len(path.read_text().splitlines()) == 2
