"""Observatory semantics over replayed flight archives.

Replayed alarms must never produce fabricated latencies: a chain whose
stages were actually re-run yields measured records (replay sources are
ingest points), while stages that never wrote in the replayed DAG yield
explicit absence (covered at the unit level in test_latency).
"""

from repro.analysis.metrics import GroundTruth
from repro.flightrec import FlightRecorder, ReplayArchive, replay_core
from repro.obsv import Observatory

from .helpers import ALARM_SCRIPT, SCORED_PIPELINE_CONFIG, build_core


def record_run(tmp_path):
    observatory = Observatory()
    core = build_core(
        SCORED_PIPELINE_CONFIG,
        services={
            "script": {"src": ALARM_SCRIPT},
            "observatory": observatory,
        },
    )
    observatory.attach(core)
    recorder = FlightRecorder(archive_dir=str(tmp_path))
    core.set_flight_recorder(recorder)
    core.run_until(float(len(ALARM_SCRIPT)))
    recorder.note_manifest(config_text=SCORED_PIPELINE_CONFIG)
    recorder.close()
    core.close()
    return observatory


class TestReplayedAlarms:
    def test_replayed_alarms_yield_well_defined_records(self, tmp_path):
        recorded = record_run(tmp_path)
        assert len(recorded.records) == 3

        replay_observatory = Observatory()
        replay_observatory.register_ground_truth(
            "CPUHog", GroundTruth(faulty_node="slave01", inject_time=2.0)
        )
        archive = ReplayArchive.load(str(tmp_path))
        core = replay_core(
            archive,
            SCORED_PIPELINE_CONFIG,
            services={"observatory": replay_observatory},
        )
        replay_observatory.attach(core)
        core.run_until(archive.end_time() + 1.0)

        # Same alarms as the recording, each with a well-defined record:
        # the replay source is itself an ingest point, so the chain walk
        # measures the replayed pipeline (never a fabricated number).
        records = replay_observatory.records
        assert len(records) == 3
        for record in records:
            assert record.delivered == ("thr.alarms", "union.alarms")
            assert record.measured
            assert record.total_sim_s >= 0.0
            assert all(
                stage.sim_s is None or stage.sim_s >= 0.0
                for stage in record.stages
            )
        row = replay_observatory.scoreboard_obj()["alarms"]["union.alarms"]
        assert row["true_alarms"] == 3
        assert row["unmeasured_alarms"] == 0
        core.close()
