"""Tests for archive replay: record a run, replay it, compare alarms."""

import pytest

from lint.helpers import per_node_knn_deployment  # tests/lint: the pre-knnfleet text

from repro.core import ConfigError
from repro.experiments import ScenarioConfig, run_scenario, scenario, shared_model
from repro.flightrec import (
    FlightRecorder,
    ReplayArchive,
    make_replay_registry,
    run_replay,
)

from .helpers import ALARM_PIPELINE_CONFIG, ALARM_SCRIPT, build_core


def record_run(tmp_path):
    """One recorded run of the alarm pipeline; returns (core, archive dir)."""
    core = build_core(
        ALARM_PIPELINE_CONFIG, {"script": {"src": ALARM_SCRIPT}}
    )
    recorder = FlightRecorder(archive_dir=str(tmp_path))
    core.set_flight_recorder(recorder)
    core.run_until(float(len(ALARM_SCRIPT)))
    recorder.note_manifest(config_text=ALARM_PIPELINE_CONFIG)
    recorder.close()
    return core, str(tmp_path)


class TestReplayArchive:
    def test_load_exposes_instances_and_outputs(self, tmp_path):
        _, directory = record_run(tmp_path)
        archive = ReplayArchive.load(directory)
        assert archive.instances() == {"src", "thr", "union"}
        assert set(archive.outputs_of("src")) == {"value"}
        assert archive.outputs_of("src")["value"]["origin"]["node"] == "slave01"
        assert len(archive.samples_for_output("src.value")) == len(ALARM_SCRIPT)
        assert archive.end_time() == float(len(ALARM_SCRIPT)) - 1.0
        assert archive.manifest["config_text"] == ALARM_PIPELINE_CONFIG

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ReplayArchive.load(str(tmp_path / "nope"))


class TestReplayDeterminism:
    def test_replay_reproduces_identical_alarms(self, tmp_path):
        recorded_core, directory = record_run(tmp_path)
        recorded_alarms = recorded_core.instance("sink").alarms
        assert len(recorded_alarms) == 3

        archive = ReplayArchive.load(directory)
        result = run_replay(archive, ALARM_PIPELINE_CONFIG)
        # Same time, node, source, detail AND provenance chain -- the
        # replayed DAG is indistinguishable from the recorded one.
        assert result.alarms["sink"] == recorded_alarms
        assert result.expected["sink"] == recorded_alarms
        assert result.matches == {"sink": True}
        assert result.all_match
        result.core.close()

    def test_replay_runs_without_the_source_service(self, tmp_path):
        # The scripted source needed a "script" service; its replay
        # stand-in needs only the archive.
        _, directory = record_run(tmp_path)
        archive = ReplayArchive.load(directory)
        result = run_replay(archive, ALARM_PIPELINE_CONFIG)
        source = result.core.instance("src")
        assert type(source).type_name == "replay_source"
        assert source.samples_replayed == len(ALARM_SCRIPT)
        result.core.close()

    def test_replay_through_retuned_config(self, tmp_path):
        _, directory = record_run(tmp_path)
        archive = ReplayArchive.load(directory)
        # Lower the bound: the same trace now alarms earlier/more often.
        retuned = ALARM_PIPELINE_CONFIG.replace("bound = 5.0", "bound = 0.5")
        result = run_replay(archive, retuned)
        assert len(result.alarms["sink"]) > 3
        assert not result.all_match  # and the mismatch is reported
        result.core.close()

    def test_replay_rejects_unrelated_config(self, tmp_path):
        _, directory = record_run(tmp_path)
        archive = ReplayArchive.load(directory)
        config = (
            "[scripted]\nid = elsewhere\n\n"
            "[print]\nid = s\ninput[a] = elsewhere.value\n"
        )
        with pytest.raises(ConfigError, match="no config instance matches"):
            run_replay(archive, config)

    def test_make_replay_registry_is_idempotent(self):
        registry = make_replay_registry()
        assert "replay_source" in registry
        assert make_replay_registry(registry) is registry


class TestPerNodeKnnArchives:
    """DESIGN.md: ``knn`` and ``knnfleet`` are one implementation with
    two bindings, so a deployment (or an archive) that still carries one
    ``[knn]`` per node alarms as the generated one does, and replays."""

    CONFIG = ScenarioConfig(
        num_slaves=6, duration_s=480.0, seed=7,
        fault_name="CPUHog", inject_time=120.0,
    )

    @staticmethod
    def alarm_rows(result):
        return [
            [(a.time, a.node, a.source, a.detail) for a in alarms]
            for alarms in (result.alarms_bb, result.alarms_wb, result.alarms_all)
        ]

    def test_records_the_same_alarms_and_replays(self, tmp_path, monkeypatch):
        model = shared_model(self.CONFIG, training_duration_s=300.0)
        generated = run_scenario(self.CONFIG, model=model)
        assert generated.alarms_bb, "the scenario has to alarm to prove anything"

        monkeypatch.setattr(
            scenario, "build_asdf_config_text",
            lambda nodes, config, scoreboard=False: per_node_knn_deployment(
                nodes, config
            ),
        )
        recorder = FlightRecorder(archive_dir=str(tmp_path))
        per_node = run_scenario(self.CONFIG, model=model, recorder=recorder)
        recorder.close()
        assert self.alarm_rows(per_node) == self.alarm_rows(generated)

        archive = ReplayArchive.load(str(tmp_path))
        config_text = archive.manifest["config_text"]
        assert config_text.count("[knn]") == self.CONFIG.num_slaves
        assert "knnfleet" not in config_text
        result = run_replay(archive, config_text, services={"bb_model": model})
        assert set(result.matches) == {
            "BlackBoxAlarm", "WhiteBoxAlarm", "CombinedAlarm"
        }
        assert result.all_match, result.matches
        assert result.alarms["BlackBoxAlarm"] == per_node.alarms_bb
        result.core.close()
