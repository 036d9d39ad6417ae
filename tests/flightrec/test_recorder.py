"""Tests for the channel rings, the archive writer and the recorder."""

import json

import numpy as np

from repro.analysis.metrics import Alarm, WindowDecision
from repro.core import Origin, Sample
from repro.flightrec import ChannelRing, FlightRecorder, decode_value, encode_value
from repro.telemetry import Telemetry

from .helpers import ALARM_PIPELINE_CONFIG, ALARM_SCRIPT, build_core


class TestCodec:
    def roundtrip(self, value):
        encoded = encode_value(value)
        json.dumps(encoded)  # must be JSON-serializable as-is
        return decode_value(encoded)

    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert self.roundtrip(value) == value

    def test_numpy_scalars_become_numbers(self):
        assert self.roundtrip(np.float64(1.5)) == 1.5
        assert self.roundtrip(np.int64(7)) == 7

    def test_ndarray_roundtrip(self):
        vector = np.array([1.0, 2.5, -3.0])
        decoded = self.roundtrip(vector)
        assert isinstance(decoded, np.ndarray)
        np.testing.assert_array_equal(decoded, vector)
        assert decoded.dtype == vector.dtype

    def test_alarm_roundtrip_keeps_provenance(self):
        alarm = Alarm(
            time=3.0, node="slave01", source="rule", detail="d",
            via=("thr.alarms", "union.alarms"),
        )
        assert self.roundtrip(alarm) == alarm

    def test_decision_list_roundtrip(self):
        decisions = [
            WindowDecision(node="n", window_start=0.0, window_end=60.0,
                           alarmed=True)
        ]
        assert self.roundtrip(decisions) == decisions

    def test_nested_dict_and_tuple_roundtrip(self):
        value = {"nodes": ["a", "b"], "pair": (1, 2.0),
                 "vec": np.array([0.5])}
        decoded = self.roundtrip(value)
        assert decoded["nodes"] == ["a", "b"]
        assert decoded["pair"] == (1, 2.0)
        np.testing.assert_array_equal(decoded["vec"], np.array([0.5]))

    def test_exotic_value_degrades_to_repr(self):
        decoded = self.roundtrip(object())
        assert isinstance(decoded, str) and "object" in decoded


class TestChannelRing:
    def make_ring(self, max_samples=4, window_s=100.0):
        return ChannelRing("a.b", Origin(node="n"), max_samples, window_s)

    def test_bounded_by_sample_count(self):
        ring = self.make_ring(max_samples=3)
        evicted = [ring.push(Sample(float(i), i)) for i in range(5)]
        assert evicted == [0, 0, 0, 1, 1]  # push says what it cost
        assert len(ring) == 3
        assert [s.value for s in ring.window()] == [2, 3, 4]
        assert ring.evictions == 2
        assert ring.total_recorded == 5

    def test_bounded_by_wall_window(self):
        ring = self.make_ring(max_samples=100, window_s=2.0)
        evicted = [ring.push(Sample(float(i), i)) for i in range(6)]
        # horizon = 5 - 2 = 3: samples at t=0,1,2 are gone.
        assert [s.value for s in ring.window()] == [3, 4, 5]
        assert ring.evictions == sum(evicted) == 3

    def test_a_late_burst_can_evict_several_at_once(self):
        ring = self.make_ring(max_samples=100, window_s=2.0)
        for i in range(4):
            assert ring.push(Sample(float(i), i)) in (0, 1)
        assert ring.push(Sample(50.0, "late")) == 3  # t=1,2,3 all too old
        assert [s.value for s in ring.window()] == ["late"]

    def test_bytes_are_those_of_what_is_buffered_now(self):
        ring = self.make_ring(max_samples=2)
        small, wide = np.zeros(1), np.zeros(64)
        ring.push(Sample(0.0, small))
        ring.push(Sample(1.0, small))
        before = ring.bytes
        ring.push(Sample(2.0, wide))   # evicts one small row
        assert ring.bytes - before == wide.nbytes - small.nbytes
        ring.push(Sample(3.0, wide))
        ring.push(Sample(4.0, wide))
        assert ring.bytes - before == 2 * (wide.nbytes - small.nbytes)

    def test_window_filters_by_timestamp(self):
        ring = self.make_ring(max_samples=10)
        for i in range(4):
            ring.push(Sample(float(i), i))
        assert [s.value for s in ring.window(1.0, 2.0)] == [1, 2]


class TestFlightRecorder:
    def run_recorded(self, archive_dir=None, telemetry=None):
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": ALARM_SCRIPT}},
            telemetry=telemetry,
        )
        recorder = FlightRecorder(archive_dir=archive_dir)
        core.set_flight_recorder(recorder)
        core.run_until(float(len(ALARM_SCRIPT)))
        return core, recorder

    def test_rings_capture_every_channel(self):
        core, recorder = self.run_recorded()
        assert set(recorder.rings) == {
            "src.value", "thr.alarms", "union.alarms"
        }
        assert [s.value for s in recorder.window("src.value")] == ALARM_SCRIPT
        assert recorder.rings["src.value"].origin.node == "slave01"

    def test_tap_preserves_scheduler_delivery(self):
        core, recorder = self.run_recorded()
        # Input-triggered modules still fire: alarms flowed to the sink.
        assert len(core.instance("sink").alarms) == 3

    def test_stats_snapshot(self):
        core, recorder = self.run_recorded()
        stats = recorder.stats()
        assert stats["channels"] == 3
        assert stats["recorded"] == stats["buffered_samples"] > 0
        assert stats["buffered_bytes"] > 0
        assert stats["evictions"] == 0

    def test_archive_files_written(self, tmp_path):
        core, recorder = self.run_recorded(archive_dir=str(tmp_path))
        recorder.note_manifest(config_text=ALARM_PIPELINE_CONFIG)
        recorder.close()
        samples = (tmp_path / "samples.jsonl").read_text().splitlines()
        assert len(samples) == recorder.stats()["archived_records"]
        record = json.loads(samples[0])
        assert set(record) == {"t", "at", "o", "v"}
        outputs = json.loads((tmp_path / "outputs.json").read_text())
        assert outputs["src.value"]["origin"]["node"] == "slave01"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format"] == "asdf-flight-archive/2"
        assert manifest["config_text"] == ALARM_PIPELINE_CONFIG
        assert manifest["stats"]["incidents"] == len(recorder.incidents)

    def test_close_is_idempotent(self, tmp_path):
        _, recorder = self.run_recorded(archive_dir=str(tmp_path))
        recorder.close()
        recorder.close()

    def test_gauges_in_expositions(self):
        telemetry = Telemetry()
        core, recorder = self.run_recorded(telemetry=telemetry)
        text = telemetry.metrics.render_prometheus()
        for family in (
            "fpt_flightrec_buffered_samples",
            "fpt_flightrec_buffered_bytes",
            "fpt_flightrec_evictions_total",
            "fpt_flightrec_records_total",
            "fpt_flightrec_incidents_total",
        ):
            assert family in text
        stats = recorder.stats()
        assert (
            f"fpt_flightrec_records_total {float(stats['recorded'])}" in text
            or f"fpt_flightrec_records_total {stats['recorded']}" in text
        )

    def test_incidents_recorded_and_cooled_down(self):
        core, recorder = self.run_recorded()
        # Three alarms for the same (node, source) within the cooldown:
        # exactly one bundle, the rest suppressed.
        assert len(recorder.incidents) == 1
        assert recorder.incidents_suppressed == 2

    def test_attach_taps_runtime_attached_instances(self):
        core, recorder = self.run_recorded()
        core.attach(
            "[print]\nid = late_sink\ninput[a] = thr.alarms\n"
        )
        assert core.dag.contexts["late_sink"].services["flight_recorder"] is recorder

    def test_skipped_gauge_exposed(self):
        telemetry = Telemetry()
        core, recorder = self.run_recorded(telemetry=telemetry)
        assert "fpt_output_skipped_total" in telemetry.metrics.render_prometheus()


class TestUnattachedCost:
    def test_no_recorder_means_no_taps(self):
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": ALARM_SCRIPT}}
        )
        assert core.flight_recorder is None
        core.run_until(float(len(ALARM_SCRIPT)))
        assert len(core.instance("sink").alarms) == 3
