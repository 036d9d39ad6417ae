"""Tests for scenario-result persistence."""

import json

import pytest

from repro.analysis import fingerpointing_latency, score_decisions
from repro.experiments import (
    ScenarioConfig,
    blackbox_fp_sweep,
    load_result,
    run_scenario,
    save_result,
    whitebox_fp_sweep,
)


@pytest.fixture(scope="module")
def result(tiny_model):
    config = ScenarioConfig(
        num_slaves=5,
        duration_s=300.0,
        seed=13,
        window=30,
        slide=30,
        fault_name="CPUHog",
        inject_time=100.0,
    )
    return run_scenario(config, model=tiny_model)


@pytest.fixture(scope="module")
def round_tripped(result, tmp_path_factory):
    path = tmp_path_factory.mktemp("persist") / "run.json"
    save_result(result, path)
    return load_result(path), path


class TestRoundTrip:
    def test_file_is_plain_json(self, round_tripped):
        _, path = round_tripped
        payload = json.loads(path.read_text())
        assert payload["format"] == "asdf-scenario-result/1"

    def test_config_and_truth_preserved(self, result, round_tripped):
        loaded, _ = round_tripped
        assert loaded.config == result.config
        assert loaded.truth == result.truth
        assert loaded.jobs_completed == result.jobs_completed

    def test_alarms_preserved(self, result, round_tripped):
        loaded, _ = round_tripped
        assert loaded.alarms_bb == result.alarms_bb
        assert loaded.alarms_wb == result.alarms_wb

    def test_decisions_preserved(self, result, round_tripped):
        loaded, _ = round_tripped
        assert loaded.decisions_bb == result.decisions_bb
        assert loaded.decisions_wb == result.decisions_wb

    def test_scores_recomputable_from_loaded_data(self, result, round_tripped):
        loaded, _ = round_tripped
        counts = score_decisions(loaded.decisions_bb, loaded.truth)
        assert counts.balanced_accuracy == pytest.approx(
            result.counts_bb.balanced_accuracy
        )
        assert fingerpointing_latency(loaded.alarms_bb, loaded.truth) == (
            result.latency_bb
        )

    def test_sweeps_run_on_loaded_stats(self, result, round_tripped):
        loaded, _ = round_tripped
        live_bb = blackbox_fp_sweep(result.stats_bb, thresholds=[20, 60])
        loaded_bb = blackbox_fp_sweep(loaded.stats_bb, thresholds=[20, 60])
        assert loaded_bb == live_bb
        live_wb = whitebox_fp_sweep(result.stats_wb, ks=[1.0, 3.0])
        loaded_wb = whitebox_fp_sweep(loaded.stats_wb, ks=[1.0, 3.0])
        assert loaded_wb == live_wb

    def test_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a saved scenario result"):
            load_result(bad)

    def test_file_saved_before_the_knobs_were_retired_still_loads(
        self, result, round_tripped, tmp_path
    ):
        """Older files carry ``engine`` and ``fleet_knn`` in the config."""
        payload = json.loads(round_tripped[1].read_text())
        payload["config"].update(engine="scalar", fleet_knn=False)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        assert load_result(old).config == result.config

    def test_any_other_unknown_config_key_is_still_rejected(
        self, round_tripped, tmp_path
    ):
        payload = json.loads(round_tripped[1].read_text())
        payload["config"]["turbo"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(TypeError, match="turbo"):
            load_result(bad)
