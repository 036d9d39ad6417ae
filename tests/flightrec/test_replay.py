"""Tests for archive replay: record a run, replay it, compare alarms."""

import gc
import weakref

import pytest

from lint.helpers import per_node_knn_deployment  # tests/lint: the per-node text

from repro.core import ConfigError
from repro.experiments import ScenarioConfig, run_scenario, scenario, shared_model
from repro.flightrec import (
    FlightRecorder,
    ReplayArchive,
    make_replay_registry,
    replay_core,
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
        assert sum(r.output == "src.value" for r in archive.records) == len(ALARM_SCRIPT)
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

    def test_a_closed_core_is_freed_by_reference_counting(self, tmp_path):
        """``close()`` cuts the wiring's cycles: with the collector off,
        dropping the last reference frees the core, and what its
        modules computed stays readable after the close."""
        recorded_core, directory = record_run(tmp_path)
        archive = ReplayArchive.load(directory)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            core = replay_core(archive, ALARM_PIPELINE_CONFIG)
            core.run_until(archive.end_time() + 1.0)
            sink = core.instance("sink")
            core.close()
            assert sink.alarms == recorded_core.instance("sink").alarms
            assert core.scheduler.total_runs > 0
            freed = [weakref.ref(core), weakref.ref(core.scheduler),
                     weakref.ref(sink), weakref.ref(core.instance("src")),
                     weakref.ref(core.dag.contexts["src"].outputs["value"])]
            del core, sink
            assert [ref() for ref in freed] == [None] * len(freed)
        finally:
            if enabled:
                gc.enable()

    def test_make_replay_registry_is_idempotent(self):
        registry = make_replay_registry()
        assert "replay_source" in registry
        assert make_replay_registry(registry) is registry


class TestFleetSadcArchives:
    """One ``sadc`` for the fleet names its scalar outputs
    ``<node>.<metric>``; the archive keys them ``sadc.<node>.<metric>``
    and the replay source recreates them under the same names."""

    CONFIG = """
[sadc]
id = sadc
nodes = a,b,c
metrics = cpu_user_pct

[threshold_alarm]
id = thr
input[m] = sadc.b.cpu_user_pct
bound = 50.0
consecutive = 2

[print]
id = sink
input[a] = thr.alarms
"""

    @staticmethod
    def channels():
        from repro.sysstat import NODE_METRICS

        class Channel:
            def __init__(self, node):
                self.node, self.calls = node, 0

            def call(self, method, now):
                self.calls += 1
                busy = 90.0 if self.node == "b" and now >= 3 else 10.0
                metrics = dict.fromkeys(NODE_METRICS, 0.0)
                metrics["cpu_user_pct"] = busy
                return {"node": metrics}

        return {node: Channel(node) for node in "abc"}

    def test_node_metric_outputs_record_and_replay(self, tmp_path):
        from repro.modules import SADC_CHANNEL_SERVICE

        core = build_core(self.CONFIG, {SADC_CHANNEL_SERVICE: self.channels()})
        recorder = FlightRecorder(archive_dir=str(tmp_path))
        core.set_flight_recorder(recorder)
        core.run_until(8.0)
        recorder.note_manifest(config_text=self.CONFIG)
        recorder.close()
        recorded = core.instance("sink").alarms
        assert [a.time for a in recorded] == [4.0, 5.0, 6.0, 7.0, 8.0]

        archive = ReplayArchive.load(str(tmp_path))
        assert set(archive.outputs_of("sadc")) == {
            name for node in "abc" for name in (node, f"{node}.cpu_user_pct")
        }
        assert archive.outputs_of("sadc")["b.cpu_user_pct"]["origin"] == {
            "node": "b", "source": "sadc", "metric": "cpu_user_pct",
        }
        assert sum(r.output == "sadc.b.cpu_user_pct" for r in archive.records) == 9
        result = run_replay(archive, self.CONFIG)
        assert type(result.core.instance("sadc")).type_name == "replay_source"
        assert result.alarms["sink"] == recorded
        assert result.all_match
        result.core.close()


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
            lambda nodes, config: per_node_knn_deployment(
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


class TestReplayCommandErrors:
    """``repro replay`` reports a bad archive or config in one line on
    stderr and exits 2, as ``repro lint`` does for an unreadable file."""

    @staticmethod
    def missing(tmp_path):
        return ["replay", str(tmp_path / "nothing-here")]

    @staticmethod
    def foreign(tmp_path):
        (tmp_path / "samples.jsonl").write_text("")
        (tmp_path / "manifest.json").write_text('{"format": "other/9"}')
        return ["replay", str(tmp_path)]

    @staticmethod
    def config(tmp_path):
        _, directory = record_run(tmp_path)
        return ["replay", directory, "--config", str(tmp_path / "none.cfg")]

    @pytest.mark.parametrize("case", ["missing", "foreign", "config"])
    def test_one_line_and_exit_two(self, case, tmp_path, capsys):
        from repro.cli import main

        assert main(getattr(self, case)(tmp_path)) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
