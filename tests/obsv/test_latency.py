"""Unit tests for the sample-to-alarm latency tracer."""

from types import SimpleNamespace

from repro.analysis.metrics import Alarm
from repro.obsv import LatencyTracer, percentile


def write(tracer, name, owner, timestamp):
    """Feed one fake channel write through the tracer's hook."""
    output = SimpleNamespace(full_name=name, owner_id=owner)
    sample = SimpleNamespace(timestamp=timestamp)
    tracer.on_write(output, sample)


def make_pipeline_tracer():
    """src (source) -> analysis -> union, with known write stamps."""
    tracer = LatencyTracer()
    tracer._upstreams = {
        "src": (),
        "analysis": ("src.value",),
        "union": ("analysis.alarms",),
    }
    return tracer


class TestWatermarks:
    def test_source_write_is_its_own_ingest(self):
        tracer = make_pipeline_tracer()
        write(tracer, "src.value", "src", 10.0)
        assert tracer.ingest_watermark("src.value")[0] == 10.0
        assert tracer.writes_observed == 1

    def test_downstream_inherits_newest_upstream_watermark(self):
        tracer = make_pipeline_tracer()
        write(tracer, "src.value", "src", 10.0)
        write(tracer, "analysis.alarms", "analysis", 12.0)
        assert tracer.ingest_watermark("analysis.alarms")[0] == 10.0
        # A newer source sample advances the inherited watermark.
        write(tracer, "src.value", "src", 11.0)
        write(tracer, "analysis.alarms", "analysis", 13.0)
        assert tracer.ingest_watermark("analysis.alarms")[0] == 11.0

    def test_unknown_upstream_leaves_watermark_absent(self):
        tracer = make_pipeline_tracer()
        write(tracer, "analysis.alarms", "analysis", 12.0)
        assert tracer.ingest_watermark("analysis.alarms") is None


class TestRecordAlarm:
    def test_empty_chain_yields_explicit_absence(self):
        tracer = make_pipeline_tracer()
        alarm = Alarm(time=30.0, node="slave01", source="blackbox")
        record = tracer.record_alarm(alarm, (), sim_now=30.0)
        assert not record.measured
        assert record.delivered == ()
        assert record.stages == ()
        assert record.ingest_sim is None
        assert record.total_sim_s is None
        assert record.total_wall_s is None
        assert record.deliver_sim_s is None

    def test_unknown_chain_head_yields_none_totals(self):
        # Replayed archives re-run the analysis stages but not raw
        # collection: the chain head has no ingest watermark, so totals
        # must be explicitly absent rather than fabricated.
        tracer = make_pipeline_tracer()
        write(tracer, "union.alarms", "union", 30.0)
        alarm = Alarm(time=30.0, node="slave01", via=("analysis.alarms",))
        record = tracer.record_alarm(
            alarm, ("analysis.alarms", "union.alarms"), sim_now=30.0
        )
        assert not record.measured
        assert record.total_sim_s is None
        assert record.ingest_sim is None
        # The unseen stage carries None; the seen one has no reference
        # point either (previous stamp missing at walk start).
        assert record.stages[0].sim_s is None

    def test_multi_hop_chain_stage_latencies(self):
        tracer = make_pipeline_tracer()
        write(tracer, "src.value", "src", 10.0)
        write(tracer, "analysis.alarms", "analysis", 12.0)
        write(tracer, "union.alarms", "union", 13.0)
        alarm = Alarm(
            time=13.0, node="slave01", source="blackbox",
            via=("analysis.alarms",),
        )
        record = tracer.record_alarm(
            alarm, ("analysis.alarms", "union.alarms"), sim_now=15.0
        )
        assert record.measured
        assert record.ingest_sim == 10.0
        assert [s.output for s in record.stages] == [
            "analysis.alarms", "union.alarms"
        ]
        # ingest(10) -> analysis write(12) -> union write(13).
        assert record.stages[0].sim_s == 2.0
        assert record.stages[1].sim_s == 1.0
        assert record.deliver_sim_s == 2.0
        assert record.total_sim_s == 5.0
        assert record.total_wall_s is not None
        assert record.total_wall_s >= 0.0

    def test_stage_latency_never_negative(self):
        tracer = make_pipeline_tracer()
        write(tracer, "src.value", "src", 10.0)
        # An out-of-order stamp (analysis carries an older timestamp)
        # clamps to zero instead of going negative.
        write(tracer, "analysis.alarms", "analysis", 9.0)
        alarm = Alarm(time=9.0, node="slave01")
        record = tracer.record_alarm(alarm, ("analysis.alarms",), sim_now=9.0)
        assert record.stages[0].sim_s == 0.0
        assert record.total_sim_s == 0.0

    def test_json_object_is_serializable(self):
        import json

        tracer = make_pipeline_tracer()
        write(tracer, "src.value", "src", 10.0)
        alarm = Alarm(time=10.0, node="slave01")
        record = tracer.record_alarm(alarm, ("src.value",), sim_now=10.0)
        obj = record.to_json_obj()
        assert json.loads(json.dumps(obj)) == obj
        assert obj["delivered"] == ["src.value"]


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
