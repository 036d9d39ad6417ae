"""Tests for the rule-based threshold_alarm module."""

import numpy as np
import pytest

from repro.core import ConfigError

from .helpers import build_core


def make_core(values, bound=50.0, direction="above", consecutive=1, reduce_="max"):
    config = (
        "[scripted]\nid = src\nnode = slave09\n\n"
        "[threshold_alarm]\nid = rule\ninput[m] = src.value\n"
        f"bound = {bound}\ndirection = {direction}\n"
        f"consecutive = {consecutive}\nreduce = {reduce_}\n\n"
        "[print]\nid = sink\ninput[a] = rule.alarms\n"
    )
    return build_core(config, {"script": {"src": values}})


def alarms(core):
    return core.instance("sink").alarms


class TestRules:
    def test_above_rule_fires_on_crossing(self):
        core = make_core([10.0, 60.0, 20.0])
        core.run_until(2.0)
        fired = alarms(core)
        assert len(fired) == 1
        assert fired[0].time == 1.0
        assert fired[0].node == "slave09"
        assert fired[0].source == "rule"

    def test_below_rule(self):
        core = make_core([80.0, 30.0], direction="below")
        core.run_until(1.0)
        assert len(alarms(core)) == 1

    def test_boundary_value_does_not_fire(self):
        core = make_core([50.0])
        core.run_until(0.0)
        assert alarms(core) == []

    def test_consecutive_requirement(self):
        core = make_core([60.0, 10.0, 60.0, 60.0, 60.0], consecutive=3)
        core.run_until(4.0)
        fired = alarms(core)
        assert [a.time for a in fired] == [4.0]

    def test_streak_resets_on_recovery(self):
        core = make_core([60.0, 60.0, 10.0, 60.0, 60.0], consecutive=3)
        core.run_until(4.0)
        assert alarms(core) == []

    def test_vector_samples_reduced(self):
        core = make_core([np.array([10.0, 70.0])], reduce_="max")
        core.run_until(0.0)
        assert len(alarms(core)) == 1
        mean_core = make_core([np.array([10.0, 70.0])], reduce_="mean")
        mean_core.run_until(0.0)
        assert alarms(mean_core) == []

    def test_detail_names_metric_and_bound(self):
        core = make_core([99.0])
        core.run_until(0.0)
        detail = alarms(core)[0].detail
        assert "slave09" in detail
        assert "above 50.00" in detail


class TestValidation:
    def test_bad_direction(self):
        with pytest.raises(ConfigError, match="direction"):
            make_core([1.0], direction="sideways")

    def test_bad_reducer(self):
        with pytest.raises(ConfigError, match="'reduce' must be one of"):
            make_core([1.0], reduce_="median")

    def test_bad_consecutive(self):
        with pytest.raises(ConfigError, match="consecutive"):
            make_core([1.0], consecutive=0)
