"""Tests for the dependency-free metrics registry and its expositions."""

import json

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry, ReadGauge


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0

    def test_set_max_is_a_high_watermark(self):
        g = Gauge()
        g.set_max(3)
        g.set_max(1)
        assert g.value == 3.0


class TestReadGauge:
    def test_value_is_read_when_asked_not_when_set(self):
        state = {"n": 0}
        reads = []

        def read():
            reads.append(1)
            return state["n"]

        reg = MetricsRegistry()
        child = reg.read_gauge("held", "Held.", read, {"ring": "a"})
        assert isinstance(child, ReadGauge)
        assert reads == []  # registering evaluates nothing
        state["n"] = 3
        assert reg.value("held", {"ring": "a"}) == 3.0
        state["n"] = 5
        assert reg.total("held") == 5.0
        assert reg.snapshot()["held"]["series"] == [
            {"labels": {"ring": "a"}, "value": 5.0}
        ]
        assert 'held{ring="a"} 5\n' in reg.render_prometheus()
        assert len(reads) == 4  # once per exposition

    def test_exposes_exactly_as_a_pushed_gauge(self):
        pushed, pulled = MetricsRegistry(), MetricsRegistry()
        pushed.gauge("depth", "Queue depth.", {"o": "x"}).set(7)
        pulled.read_gauge("depth", "Queue depth.", lambda: 7, {"o": "x"})
        assert pulled.render_prometheus() == pushed.render_prometheus()
        assert pulled.render_json() == pushed.render_json()

    def test_rebinding_a_series_reads_the_latest_owner(self):
        reg = MetricsRegistry()
        reg.read_gauge("held", "", lambda: 1)
        reg.read_gauge("held", "", lambda: 2)
        assert reg.value("held") == 2.0
        assert len(list(reg.iter_children("held"))) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.read_gauge("thing", "", lambda: 0)


class TestHistogram:
    def test_observations_land_in_first_fitting_bucket(self):
        h = Histogram(buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(100.0)  # overflow -> +Inf
        assert h.bucket_counts == [1, 1]
        assert h.overflow == 1
        assert h.count == 3
        assert h.sum == pytest.approx(105.5)
        assert h.mean == pytest.approx(105.5 / 3)

    def test_cumulative_buckets_end_with_inf(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 0.6, 5.0, 99.0):
            h.observe(v)
        assert h.cumulative_buckets() == [
            (1.0, 2), (10.0, 3), (float("inf"), 4),
        ]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(buckets=(10.0, 1.0))
        with pytest.raises(ValueError, match="sorted"):
            Histogram(buckets=())


class TestRegistry:
    def test_same_name_and_labels_share_a_child(self):
        reg = MetricsRegistry()
        a = reg.counter("runs_total", labels={"instance": "x"})
        b = reg.counter("runs_total", labels={"instance": "x"})
        other = reg.counter("runs_total", labels={"instance": "y"})
        a.inc()
        assert b.value == 1.0
        assert other.value == 0.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("thing")

    def test_value_and_total(self):
        reg = MetricsRegistry()
        reg.counter("c", labels={"k": "a"}).inc(2)
        reg.counter("c", labels={"k": "b"}).inc(3)
        assert reg.value("c", {"k": "a"}) == 2.0
        assert reg.value("c", {"k": "missing"}) == 0.0
        assert reg.value("missing_family") == 0.0
        assert reg.total("c") == 5.0

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", "Total runs.", {"instance": "s"}).inc(4)
        reg.gauge("depth", "Queue depth.").set(2)
        hist = reg.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = reg.render_prometheus()
        assert "# HELP runs_total Total runs." in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{instance="s"} 4' in text
        assert "depth 2" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert "latency_seconds_count 2" in text
        assert "latency_seconds_sum" in text

    def test_prometheus_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", labels={"path": 'a"b\\c\nd'}).inc()
        text = reg.render_prometheus()
        assert r'path="a\"b\\c\nd"' in text

    def test_json_snapshot_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c", "help", {"k": "v"}).inc(7)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        parsed = json.loads(reg.render_json())
        assert parsed["c"]["type"] == "counter"
        assert parsed["c"]["series"][0] == {"labels": {"k": "v"}, "value": 7.0}
        hseries = parsed["h"]["series"][0]
        assert hseries["count"] == 1
        assert hseries["buckets"][-1]["le"] == "+Inf"
