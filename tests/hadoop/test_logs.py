"""Tests for Hadoop log formatting and the DaemonLog store."""

import pytest

from repro.hadoop import (
    DaemonLog,
    TASKTRACKER_CLASS,
    format_line,
    format_timestamp,
    parse_timestamp,
)


class TestTimestamps:
    def test_round_trip_whole_seconds(self):
        assert parse_timestamp(format_timestamp(125.0)) == pytest.approx(125.0)

    def test_round_trip_with_milliseconds(self):
        assert parse_timestamp(format_timestamp(3.25)) == pytest.approx(3.25)

    def test_matches_paper_figure5_format(self):
        # Figure 5: "2008-04-15 14:23:15,324"
        text = format_timestamp(23 * 60 + 15 + 0.324)
        assert text == "2008-04-15 14:23:15,324"

    def test_parse_without_millis(self):
        assert parse_timestamp("2008-04-15 14:00:10") == pytest.approx(10.0)

    def test_parse_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("not a timestamp")

    @pytest.mark.parametrize("text", [
        "2008-13-15 14:00:10,000",      # month 13
        "2008-00-15 14:00:10,000",      # month 0
        "2008-04-31 14:00:10,000",      # April has 30 days
        "2008-04-15 24:00:10,000",      # hour 24
        "2008-04-15 14:60:10,000",      # minute 60
        "2008-04-15 14:00:61,000",      # second 61
        "2008-04-15 14:00",             # short
        "2008-04-15",                   # shorter
        "",                             # empty
        "2008-4-15 14:00:10,000",       # not fixed-width
        "2008/04/15 14:00:10,000",      # wrong separators
        "2008-04-15T14:00:10,000",
        "2008-04-15 14:00:10.000",      # millis behind a dot
        "2008-04-15 14:00:10,abc",      # millis not a number
        "2008-04-15 14:0x:10,000",      # a digit that is not one
        "2008-04-15 14:00:10 INFO",     # trailing text
    ])
    def test_malformed_or_out_of_range_raises(self, text):
        with pytest.raises(ValueError):
            parse_timestamp(text)

    def test_every_second_of_a_day_round_trips(self):
        # The sliced fields cross minute, hour and day boundaries.
        for sim_time in range(0, 36 * 3600, 997):
            assert parse_timestamp(format_timestamp(sim_time + 0.5)) == sim_time + 0.5


class TestBadTimestampLines:
    def test_bad_timestamp_counts_as_skipped(self):
        from repro.hadoop import StateVectorStream

        from .log_oracle import NodeLogParser

        good = format_line(5.0, "INFO", TASKTRACKER_CLASS,
                           "LaunchTaskAction: task_0001_m_000000_0")
        bad_month = good.replace("2008-04-15", "2008-13-15")
        bad_hour = good.replace(" 14:", " 25:")
        for reader in (NodeLogParser("n"), StateVectorStream("n")):
            for line in (bad_month, bad_hour, good[:15], good):
                reader.feed_line(line)
            assert reader.lines_skipped == 3
            assert reader.lines_parsed == 1
            assert reader.watermark() == 5.0


class TestFormatLine:
    def test_full_line_shape(self):
        line = format_line(0.0, "INFO", TASKTRACKER_CLASS, "LaunchTaskAction: task_x")
        assert line == (
            "2008-04-15 14:00:00,000 INFO org.apache.hadoop.mapred.TaskTracker: "
            "LaunchTaskAction: task_x"
        )


class TestDaemonLog:
    def test_append_and_records(self):
        log = DaemonLog("slave01", "tasktracker")
        log.append(1.0, "INFO", TASKTRACKER_CLASS, "hello")
        assert len(log) == 1
        assert log.records()[0].time == 1.0
        assert "hello" in log.records()[0].line

    def test_read_from_returns_new_records_and_offset(self):
        log = DaemonLog("slave01", "tasktracker")
        for i in range(3):
            log.append(float(i), "INFO", TASKTRACKER_CLASS, f"line{i}")
        records, offset = log.read_from(0)
        assert len(records) == 3 and offset == 3
        log.append(3.0, "INFO", TASKTRACKER_CLASS, "line3")
        records, offset = log.read_from(offset)
        assert len(records) == 1 and offset == 4

    def test_read_from_negative_offset(self):
        log = DaemonLog("slave01", "tasktracker")
        log.append(0.0, "INFO", TASKTRACKER_CLASS, "x")
        records, offset = log.read_from(-5)
        assert len(records) == 1

    def test_read_from_past_end_is_empty(self):
        log = DaemonLog("slave01", "tasktracker")
        records, offset = log.read_from(10)
        assert records == [] and offset == 0

    def test_text_joins_lines(self):
        log = DaemonLog("slave01", "tasktracker")
        log.append(0.0, "INFO", TASKTRACKER_CLASS, "a")
        log.append(1.0, "WARN", TASKTRACKER_CLASS, "b")
        assert log.text().count("\n") == 1

    def test_last_time(self):
        log = DaemonLog("slave01", "tasktracker")
        assert log.last_time() is None
        log.append(9.0, "INFO", TASKTRACKER_CLASS, "x")
        assert log.last_time() == 9.0
