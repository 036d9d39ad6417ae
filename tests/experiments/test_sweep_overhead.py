"""Tests for threshold sweeps and overhead measurement."""

import pytest

from repro.experiments import (
    blackbox_fp_sweep,
    deep_sizeof,
    measure_overheads,
    pick_knee,
    whitebox_fp_sweep,
)


def bb_stats(deviations_by_round):
    return [
        {
            "nodes": [f"n{i}" for i in range(len(devs))],
            "deviations": list(devs),
            "windows": {},
        }
        for devs in deviations_by_round
    ]


def wb_stats(means_by_round, stds=0.1):
    return [
        {
            "nodes": [f"n{i}" for i in range(len(means))],
            "means": [[m] for m in means],
            "stds": [[stds] for _ in means],
            "windows": {},
        }
        for means in means_by_round
    ]


class TestBlackboxSweep:
    def test_fp_rate_monotone_nonincreasing(self):
        rounds = bb_stats([[10, 20, 80], [15, 70, 75], [5, 10, 90]])
        curve = blackbox_fp_sweep(rounds, thresholds=[0, 30, 60, 100], consecutive=1)
        rates = [rate for _, rate in curve]
        assert rates == sorted(rates, reverse=True)

    def test_zero_threshold_alarms_everything(self):
        rounds = bb_stats([[1, 1, 1]] * 3)
        curve = blackbox_fp_sweep(rounds, thresholds=[0.5], consecutive=1)
        assert curve[0][1] == 100.0

    def test_huge_threshold_never_alarms(self):
        rounds = bb_stats([[50, 60, 70]] * 3)
        curve = blackbox_fp_sweep(rounds, thresholds=[1000.0], consecutive=1)
        assert curve[0][1] == 0.0

    def test_consecutive_filter_reduces_fp(self):
        # One isolated anomalous round amid clean ones.
        rounds = bb_stats([[1, 1, 99], [1, 1, 1], [1, 1, 99], [1, 1, 1]])
        loose = blackbox_fp_sweep(rounds, thresholds=[50], consecutive=1)[0][1]
        strict = blackbox_fp_sweep(rounds, thresholds=[50], consecutive=2)[0][1]
        assert strict < loose

    def test_zero_consecutive_is_refused_like_the_online_rule(self):
        """The sweep counts streaks with the detectors' own counter, which
        refuses a streak of 0."""
        with pytest.raises(ValueError, match="must be >= 1"):
            blackbox_fp_sweep(bb_stats([[1, 1, 99]]), thresholds=[50], consecutive=0)

    def test_empty_rounds_give_zero(self):
        assert blackbox_fp_sweep([], thresholds=[5])[0][1] == 0.0


class TestWhiteboxSweep:
    def test_fp_rate_monotone_in_k(self):
        rounds = wb_stats([[5.0, 5.0, 9.0]] * 4, stds=1.0)
        curve = whitebox_fp_sweep(rounds, ks=[0.0, 2.0, 10.0], consecutive=1)
        rates = [rate for _, rate in curve]
        assert rates == sorted(rates, reverse=True)

    def test_floor_keeps_fp_zero_for_tiny_deviations(self):
        rounds = wb_stats([[1.0, 1.0, 1.5]] * 4)
        curve = whitebox_fp_sweep(rounds, ks=[0.0], consecutive=1)
        assert curve[0][1] == 0.0


class TestPickKnee:
    def test_picks_first_parameter_near_best(self):
        curve = [(0.0, 80.0), (20.0, 10.0), (40.0, 1.0), (60.0, 0.5), (80.0, 0.5)]
        assert pick_knee(curve, tolerance=1.0) == 40.0

    def test_flat_curve_picks_first(self):
        assert pick_knee([(1.0, 0.0), (2.0, 0.0)]) == 1.0

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError):
            pick_knee([])


class TestDeepSizeof:
    def test_counts_nested_containers(self):
        small = deep_sizeof([1, 2, 3])
        large = deep_sizeof([[1, 2, 3]] * 10 + [list(range(100))])
        assert large > small

    def test_handles_cycles(self):
        a = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_objects_with_dict(self):
        class Thing:
            def __init__(self):
                self.payload = list(range(1000))

        assert deep_sizeof(Thing()) > 8000


class TestMeasureOverheads:
    def test_report_shape_and_plausibility(self):
        report = measure_overheads(
            num_slaves=4, duration_s=60.0, training_duration_s=40.0
        )
        assert [row.process for row in report.table3] == [
            "hadoop_log_rpcd",
            "sadc_rpcd",
            "fpt-core",
        ]
        for row in report.table3:
            assert 0.0 <= row.cpu_pct < 50.0
            assert row.memory_mb > 0.0
        assert [row.rpc_type for row in report.table4] == [
            "sadc-tcp",
            "hl-dn-tcp",
            "hl-tt-tcp",
            "TCP Sum",
        ]
        total = report.table4[-1]
        assert total.per_iteration_kb_s == pytest.approx(
            sum(r.per_iteration_kb_s for r in report.table4[:-1])
        )
        assert "% CPU" in report.table3_text()
        assert "sadc-tcp" in report.table4_text()
