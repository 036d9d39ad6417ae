"""Tests for the print sink, the alarm union, and the CSV logger."""

import csv
from dataclasses import replace

import pytest

from repro.analysis import Alarm
from repro.core import ConfigError

from .helpers import build_core, collected


class TestPrintModule:
    def test_collects_everything(self):
        config = (
            "[scripted]\nid = src\n\n[print]\nid = sink\ninput[a] = src.value\n"
        )
        core = build_core(config, {"script": {"src": [1, 2, 3]}})
        core.run_until(2.0)
        assert collected(core, "sink") == [1, 2, 3]

    def test_alarms_property_filters(self):
        alarm = Alarm(time=1.0, node="n")
        config = (
            "[scripted]\nid = src\n\n[print]\nid = sink\ninput[a] = src.value\n"
        )
        core = build_core(config, {"script": {"src": [alarm, "not an alarm"]}})
        core.run_until(1.0)
        assert core.instance("sink").alarms == [alarm]

    def test_echoes_when_not_quiet(self, capsys):
        config = (
            "[scripted]\nid = src\n\n"
            "[print]\nid = sink\nquiet = false\nprefix = TEST\ninput[a] = src.value\n"
        )
        core = build_core(config, {"script": {"src": [Alarm(time=0.0, node="bad")]}})
        core.run_until(0.0)
        out = capsys.readouterr().out
        assert "[TEST]" in out
        assert "bad" in out

    def test_requires_at_least_one_input(self):
        with pytest.raises(ConfigError, match="requires at least one wired input"):
            build_core("[print]\nid = sink\n", {"script": {}})

    def test_echo_routes_through_logging(self, capsys):
        import logging

        from repro.modules.alarms import ALARM_LOGGER_NAME

        logger = logging.getLogger(ALARM_LOGGER_NAME)
        saved = logger.handlers[:]
        for handler in saved:
            logger.removeHandler(handler)
        messages = []

        class Capture(logging.Handler):
            def emit(self, record):
                messages.append(record.getMessage())

        logger.addHandler(Capture())
        logger.propagate = False
        try:
            config = (
                "[scripted]\nid = src\n\n"
                "[print]\nid = sink\nquiet = false\nprefix = LOGGED\n"
                "input[a] = src.value\n"
            )
            core = build_core(
                config, {"script": {"src": [Alarm(time=0.0, node="bad")]}}
            )
            core.run_until(0.0)
        finally:
            for handler in logger.handlers[:]:
                logger.removeHandler(handler)
            for handler in saved:
                logger.addHandler(handler)
        # A user-installed handler owns the echo: stdout stays silent.
        assert any("[LOGGED]" in m and "bad" in m for m in messages)
        assert capsys.readouterr().out == ""


class TestAlarmUnion:
    def test_merges_multiple_streams(self):
        a1 = Alarm(time=1.0, node="x", source="blackbox")
        a2 = Alarm(time=2.0, node="y", source="whitebox")
        config = (
            "[scripted]\nid = bb\n\n[scripted]\nid = wb\n\n"
            "[alarm_union]\nid = u\ninput[a] = bb.value\ninput[b] = wb.value\n\n"
            "[print]\nid = sink\ninput[a] = u.alarms\n"
        )
        core = build_core(config, {"script": {"bb": [a1], "wb": [None, a2]}})
        core.run_until(2.0)
        merged = collected(core, "sink")
        assert [replace(a, via=()) for a in merged] == [a1, a2]
        # The union stamps provenance: the upstream output that raised
        # each alarm survives the merge.
        assert merged[0].via == ("bb.value",)
        assert merged[1].via == ("wb.value",)
        assert merged[0].raised_by == "bb.value"

    def test_non_alarms_are_dropped(self):
        config = (
            "[scripted]\nid = src\n\n"
            "[alarm_union]\nid = u\ninput[a] = src.value\n\n"
            "[print]\nid = sink\ninput[a] = u.alarms\n"
        )
        core = build_core(config, {"script": {"src": ["noise", 42]}})
        core.run_until(1.0)
        assert collected(core, "sink") == []
        assert core.instance("u").forwarded == 0

    def test_alarm_timestamps_preserved(self):
        alarm = Alarm(time=7.5, node="x")
        config = (
            "[scripted]\nid = src\n\n"
            "[alarm_union]\nid = u\ninput[a] = src.value\n\n"
            "[print]\nid = sink\ninput[a] = u.alarms\n"
        )
        core = build_core(config, {"script": {"src": [alarm]}})
        core.run_until(0.0)
        assert core.instance("sink").received[0].timestamp == 0.0

    def test_requires_inputs(self):
        with pytest.raises(ConfigError, match="requires at least one wired input"):
            build_core("[alarm_union]\nid = u\n", {"script": {}})


class TestCsvWriter:
    def make_core(self, tmp_path, values):
        path = tmp_path / "out.csv"
        config = (
            "[scripted]\nid = src\nnode = slave01\n\n"
            f"[csv_writer]\nid = w\npath = {path}\ninput[a] = src.value\n"
        )
        core = build_core(config, {"script": {"src": values}})
        return core, path

    def test_writes_header_and_rows(self, tmp_path):
        core, path = self.make_core(tmp_path, [1.5, 2.5])
        core.run_until(1.0)
        core.close()
        rows = list(csv.reader(open(path)))
        assert rows[0][0] == "timestamp"
        assert rows[1][:2] == ["0.000", "slave01/scripted"]
        assert float(rows[1][2]) == 1.5
        assert len(rows) == 3

    def test_vector_values_flattened(self, tmp_path):
        import numpy as np

        core, path = self.make_core(tmp_path, [np.array([1.0, 2.0, 3.0])])
        core.run_until(0.0)
        core.close()
        rows = list(csv.reader(open(path)))
        assert rows[1][2:] == ["1.0", "2.0", "3.0"]

    def test_rows_written_counter(self, tmp_path):
        core, path = self.make_core(tmp_path, [1, 2, 3])
        core.run_until(2.0)
        assert core.instance("w").rows_written == 3
        core.close()

    def test_close_is_idempotent(self, tmp_path):
        core, path = self.make_core(tmp_path, [1])
        core.run_until(0.0)
        core.close()
        core.close()

    def test_requires_inputs(self, tmp_path):
        with pytest.raises(ConfigError, match="requires at least one wired input"):
            build_core(
                f"[csv_writer]\nid = w\npath = {tmp_path / 'x.csv'}\n",
                {"script": {}},
            )
