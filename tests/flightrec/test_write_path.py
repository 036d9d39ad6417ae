"""The recorder's write path: totals, O(1) cost, archive faults.

The recorder counts records and evictions as it records, counts what is
buffered when somebody asks, and publishes all of it as read-on-scrape
gauges.  A from-scratch walk over every ring is the oracle: whatever
interleaving of writes, evictions and incidents happens, ``stats()`` and
every exposition of the gauges must equal a recount.
"""

import json
import logging
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import Alarm
from repro.core import Output
from repro.flightrec import FlightRecorder, ReplayArchive
from repro.flightrec.recorder import _estimate_bytes
from repro.telemetry import Telemetry

from .helpers import ALARM_PIPELINE_CONFIG, ALARM_SCRIPT, build_core


def recount(recorder) -> dict:
    """``stats()`` from scratch: every ring walked, every sample sized."""
    rings = recorder.rings.values()
    return {
        "channels": len(recorder.rings),
        "buffered_samples": sum(len(r.window()) for r in rings),
        "buffered_bytes": sum(
            _estimate_bytes(s.value) for r in rings for s in r.window()
        ),
        "evictions": sum(r.evictions for r in rings),
        "recorded": sum(r.total_recorded for r in rings),
        "incidents": len(recorder.incidents),
    }


#: gauge family -> the ``stats()`` key it publishes.
FLIGHTREC_GAUGES = {
    "fpt_flightrec_buffered_samples": "buffered_samples",
    "fpt_flightrec_buffered_bytes": "buffered_bytes",
    "fpt_flightrec_evictions_total": "evictions",
    "fpt_flightrec_records_total": "recorded",
    "fpt_flightrec_incidents_total": "incidents",
}


def prometheus_values(text: str) -> dict:
    """``name{labels}`` -> value for every sample line of an exposition."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            values[series] = float(value)
    return values


def assert_expositions_equal(metrics, family: str, labels: dict,
                             expected: float) -> None:
    assert metrics.value(family, labels or None) == expected
    (entry,) = [
        e for e in metrics.snapshot()[family]["series"]
        if e["labels"] == labels
    ]
    assert entry["value"] == expected
    rendered = "".join(f'{k}="{v}"' for k, v in labels.items())
    series = f"{family}{{{rendered}}}" if labels else family
    assert prometheus_values(metrics.render_prometheus())[series] == expected


VALUES = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False, width=32),
    st.lists(st.integers(0, 9), max_size=4),
    st.text(max_size=6),
)
#: ("write", output index, timestamp step, value) | ("incident", node
#: index) | ("latest",): a consumer skipping its backlog
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 3),
                  st.floats(0.0, 40.0), VALUES),
        st.tuples(st.just("incident"), st.integers(0, 2)),
        st.tuples(st.just("latest")),
    ),
    max_size=60,
)


class TestRunningTotals:
    @settings(max_examples=60, deadline=None)
    @given(
        max_samples=st.sampled_from([1, 3, 512]),
        window_s=st.sampled_from([0.0, 5.0, 300.0]),
        steps=STEPS,
    )
    def test_totals_equal_a_recount_after_every_step(
        self, max_samples, window_s, steps
    ):
        telemetry = Telemetry(trace=False)
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": []}},
            telemetry=telemetry,
        )
        recorder = FlightRecorder(
            max_samples=max_samples, window_s=window_s,
            incident_cooldown_s=0.0, max_incidents=3,
        )
        core.set_flight_recorder(recorder)
        metrics = telemetry.metrics
        # Three outputs of the DAG plus one that shares a ring with the
        # first (same full name): two taps feeding one ring must still
        # add up.
        outputs = [
            ctx.outputs[name]
            for instance, name in (("src", "value"), ("thr", "alarms"),
                                   ("union", "alarms"))
            for ctx in [core.dag.contexts[instance]]
        ]
        twin = Output(owner_id="src", name="value")
        recorder.attach_output(twin)
        outputs.append(twin)
        # A second, two-slot consumer of src.value, so that samples are
        # dropped (queue full) and skipped (latest()) along the way.
        impatient = outputs[0].subscribe(capacity=2)

        now = 0.0
        for step in steps:
            if step[0] == "write":
                _, index, dt, value = step
                now += dt
                outputs[index].write(value, now)
            elif step[0] == "incident":
                alarm = Alarm(time=now, node=f"slave0{step[1]}",
                              source="test", detail="d")
                recorder.record_incident(alarm, sink="sink")
            else:
                impatient.latest()
            expected = recount(recorder)
            stats = recorder.stats()
            assert {k: stats[k] for k in expected} == expected
            for family, key in FLIGHTREC_GAUGES.items():
                assert_expositions_equal(metrics, family, {}, expected[key])
            for output in outputs[:3]:  # bound at attach: 0 before a write
                labels = {"output": output.full_name}
                assert_expositions_equal(
                    metrics, "fpt_output_writes_total", labels,
                    output.total_written,
                )
                assert_expositions_equal(
                    metrics, "fpt_output_dropped_total", labels,
                    sum(c.total_dropped for c in output.subscribers),
                )
                assert_expositions_equal(
                    metrics, "fpt_output_skipped_total", labels,
                    sum(c.total_skipped for c in output.subscribers),
                )
        core.close()

    def test_series_follow_the_output_that_writes(self):
        # Two cores sharing one Telemetry reuse output names; the series
        # read the core bound last, not the first core's (dead) output
        # and subscriber list.
        telemetry = Telemetry(trace=False)
        labels = {"output": "src.value"}
        for writes in (2, 4):
            core = build_core(
                ALARM_PIPELINE_CONFIG, {"script": {"src": []}},
                telemetry=telemetry,
            )
            output = core.dag.contexts["src"].outputs["value"]
            assert telemetry.metrics.value(
                "fpt_output_writes_total", labels) == 0
            output.subscribe(capacity=1)
            for i in range(writes):
                output.write(i, float(i))
            assert telemetry.metrics.value(
                "fpt_output_writes_total", labels
            ) == output.total_written == writes
            assert telemetry.metrics.value(
                "fpt_output_dropped_total", labels
            ) == writes - 1
            core.close()

    def test_skipped_gauge_follows_the_consumer_between_writes(self):
        # latest() discards backlog *after* the write that queued it; a
        # gauge pushed at write time lagged behind until the next write.
        telemetry = Telemetry(trace=False)
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": []}},
            telemetry=telemetry,
        )
        output = core.dag.contexts["src"].outputs["value"]
        (connection,) = output.subscribers
        core.scheduler.remove_instance("thr")  # nobody drains the queue
        for i in range(4):
            output.write(i, float(i))
        labels = {"output": "src.value"}
        assert telemetry.metrics.value("fpt_output_skipped_total", labels) == 0
        connection.latest()
        assert telemetry.metrics.value("fpt_output_skipped_total", labels) == 3


class _NoEnumeration(dict):
    """A ``rings`` dict that refuses to be walked."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the write path enumerated recorder.rings")

    values = items = keys = __iter__ = _refuse


class TestWritePathIsConstantTime:
    def test_no_write_walks_the_rings(self, tmp_path):
        telemetry = Telemetry()
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": ALARM_SCRIPT}},
            telemetry=telemetry,
        )
        recorder = FlightRecorder(archive_dir=str(tmp_path), max_incidents=0)
        core.set_flight_recorder(recorder)
        rings = recorder.rings
        recorder.rings = _NoEnumeration(rings)
        # Through the pipeline, and directly through every tapped output.
        core.run_until(float(len(ALARM_SCRIPT)))
        for ctx in core.dag.contexts.values():
            for output in ctx.outputs.values():
                output.write(0, 99.0)
        with pytest.raises(AssertionError, match="enumerated"):
            recorder.stats()  # the guard was live all along
        recorder.rings = rings  # a scrape may walk them; a write did not
        stats = recorder.stats()
        assert stats["recorded"] == sum(
            ring.total_recorded for ring in rings.values()
        ) > len(ALARM_SCRIPT)
        assert stats["buffered_samples"] == sum(len(r) for r in rings.values())
        recorder.close()
        core.close()


class TestScrapeWhileRecording:
    def test_scraper_thread_reads_consistent_totals(self):
        # The ops thread evaluates the read-on-scrape gauges while the
        # scenario thread records: plain reads of ints one thread
        # writes.  Every scrape must parse, counters must never run
        # backwards, and the last scrape must equal stats().
        telemetry = Telemetry(trace=False)
        core = build_core(
            ALARM_PIPELINE_CONFIG,
            {"script": {"src": [1, 9] * 1500}}, telemetry=telemetry,
        )
        recorder = FlightRecorder(max_samples=8)
        core.set_flight_recorder(recorder)
        metrics = telemetry.metrics
        seen, errors, done = [], [], threading.Event()

        def scrape():
            try:
                while not done.is_set():
                    values = prometheus_values(metrics.render_prometheus())
                    seen.append((values["fpt_flightrec_records_total"],
                                 values["fpt_flightrec_evictions_total"]))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=scrape) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            core.run_until(3000.0)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert seen  # interleaved for real
        stats = recorder.stats()
        assert stats["recorded"] >= 3000 and stats["evictions"] > 0
        final = prometheus_values(metrics.render_prometheus())
        assert final["fpt_flightrec_records_total"] == stats["recorded"]
        assert final["fpt_flightrec_evictions_total"] == stats["evictions"]
        assert all(r <= stats["recorded"] and e <= stats["evictions"]
                   for r, e in seen)
        core.close()


class _FailingHandle:
    """A samples file whose ``fail_on``-th write raises ``OSError``."""

    def __init__(self, handle, fail_on: int) -> None:
        self.handle = handle
        self.fail_on = fail_on
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes >= self.fail_on:
            raise OSError(28, "No space left on device")
        return self.handle.write(text)

    def close(self) -> None:
        self.handle.close()


class TestRecorderNeverBreaksThePipeline:
    def run_pipeline(self, recorder=None):
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": ALARM_SCRIPT}}
        )
        if recorder is not None:
            core.set_flight_recorder(recorder)
        return core

    def test_write_after_close_keeps_recording_in_memory(self, tmp_path):
        recorder = FlightRecorder(archive_dir=str(tmp_path))
        core = self.run_pipeline(recorder)
        core.run_until(2.0)  # before the first alarm (t=3)
        archived = recorder.stats()["archived_records"]
        recorder.close()
        core.run_until(float(len(ALARM_SCRIPT)))  # raised AttributeError
        stats = recorder.stats()
        assert len(core.instance("sink").alarms) == 3
        assert stats["archived_records"] == archived
        assert stats["recorded"] > archived
        assert stats["archive_error"] is None
        # The closed archive is the run up to close(), intact.
        archive = ReplayArchive.load(str(tmp_path))
        assert len(archive.records) == archived == archive.manifest["records"]
        # A bundle frozen after close() stays in memory only.
        assert len(recorder.incidents) == 1
        assert not list(tmp_path.glob("incident-*"))
        core.close()

    def test_archive_oserror_stops_the_archive_not_the_run(
        self, tmp_path, caplog
    ):
        reference = self.run_pipeline()
        reference.run_until(float(len(ALARM_SCRIPT)))
        expected_alarms = reference.instance("sink").alarms

        recorder = FlightRecorder(archive_dir=str(tmp_path))
        core = self.run_pipeline(recorder)
        recorder.archive._fh = _FailingHandle(recorder.archive._fh, fail_on=3)
        with caplog.at_level(logging.ERROR, logger="repro.flightrec"):
            core.run_until(float(len(ALARM_SCRIPT)))
        assert core.instance("sink").alarms == expected_alarms
        stats = recorder.stats()
        assert stats["archived_records"] == 2
        assert stats["recorded"] == sum(
            ring.total_recorded for ring in recorder.rings.values()
        ) > 2
        assert "No space left on device" in stats["archive_error"]
        logged = [r for r in caplog.records if r.name == "repro.flightrec"]
        assert len(logged) == 1  # once, not once per lost record
        assert "No space left on device" in logged[0].getMessage()
        # The failure is in the manifest too: silence is not health.
        recorder.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["records"] == 2
        assert manifest["stats"]["archive_error"] == stats["archive_error"]
        core.close()

    def test_unwritable_incident_file_does_not_reach_the_sink(
        self, tmp_path, caplog
    ):
        recorder = FlightRecorder(archive_dir=str(tmp_path / "flight"))
        core = self.run_pipeline(recorder)
        # incident-0001.json cannot be created: a directory has its name.
        (tmp_path / "flight" / "incident-0001.json").mkdir()
        with caplog.at_level(logging.ERROR, logger="repro.flightrec"):
            core.run_until(float(len(ALARM_SCRIPT)))
        assert len(core.instance("sink").alarms) == 3
        assert len(recorder.incidents) == 1  # frozen in memory all the same
        assert "incident-0001.json" in recorder.stats()["archive_error"]
        core.close()

    def test_healthy_run_reports_no_error(self, tmp_path):
        recorder = FlightRecorder(archive_dir=str(tmp_path))
        core = self.run_pipeline(recorder)
        core.run_until(float(len(ALARM_SCRIPT)))
        assert recorder.stats()["archive_error"] is None
        assert FlightRecorder().stats()["archive_error"] is None
        core.close()


class _FlushFails(_FailingHandle):
    """Takes every write into its buffer; cannot get it to the disk."""

    def __init__(self, handle) -> None:
        super().__init__(handle, fail_on=sys.maxsize)

    def flush(self) -> None:
        raise OSError(5, "Input/output error")


class TestArchiveDurability:
    """``samples.jsonl`` goes through a 64 KiB buffer; it is on disk when
    a bundle is written and at ``close()``."""

    def on_disk(self, directory) -> list:
        # A second handle on the file: what a crash now would leave.
        return (directory / "samples.jsonl").read_text().splitlines()

    def test_evidence_is_on_disk_when_record_incident_returns(self, tmp_path):
        recorder = FlightRecorder(archive_dir=str(tmp_path), max_incidents=1)
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": ALARM_SCRIPT}}
        )
        core.set_flight_recorder(recorder)
        core.run_until(2.0)  # before the first alarm (t=3)
        assert recorder.stats()["archived_records"] == 3
        assert self.on_disk(tmp_path) == []  # buffered, a few hundred bytes
        core.run_until(3.0)  # the sink sees the alarm and freezes a bundle
        assert len(recorder.incidents) == 1
        on_disk = self.on_disk(tmp_path)
        # src t=0..3, thr.alarms and union.alarms at t=3: all six, and
        # the last one is the alarm the sink was handed.
        assert len(on_disk) == recorder.stats()["archived_records"] == 6
        assert json.loads(on_disk[-1])["o"] == "union.alarms"
        assert (tmp_path / "incident-0001.json").exists()
        core.run_until(float(len(ALARM_SCRIPT)))  # no second bundle: cap
        assert len(self.on_disk(tmp_path)) == 6
        assert recorder.stats()["archived_records"] > 6
        recorder.close()
        assert len(self.on_disk(tmp_path)) == \
            recorder.stats()["archived_records"]
        core.close()

    def test_oserror_on_flush_stops_the_archive_once(self, tmp_path, caplog):
        recorder = FlightRecorder(archive_dir=str(tmp_path))
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": ALARM_SCRIPT}}
        )
        core.set_flight_recorder(recorder)
        recorder.archive._fh = _FlushFails(recorder.archive._fh)
        with caplog.at_level(logging.ERROR, logger="repro.flightrec"):
            core.run_until(float(len(ALARM_SCRIPT)))
        assert len(core.instance("sink").alarms) == 3  # the run went on
        assert len(recorder.incidents) == 1  # frozen in memory all the same
        assert not list(tmp_path.glob("incident-*"))
        stats = recorder.stats()
        assert "Input/output error" in stats["archive_error"]
        assert stats["archived_records"] == 6  # none after the failed flush
        assert stats["recorded"] > 6
        logged = [r for r in caplog.records if r.name == "repro.flightrec"]
        assert len(logged) == 1
        recorder.close()
        core.close()


class TestIncidentFiles:
    def test_bundle_file_is_compact_and_parses_to_the_bundle(self, tmp_path):
        recorder = FlightRecorder(archive_dir=str(tmp_path))
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": ALARM_SCRIPT}}
        )
        core.set_flight_recorder(recorder)
        core.run_until(float(len(ALARM_SCRIPT)))
        text = (tmp_path / "incident-0001.json").read_text()
        assert "\n" not in text  # one line: the C encoder wrote it
        assert json.loads(text) == json.loads(json.dumps(recorder.incidents[0]))
        core.close()
