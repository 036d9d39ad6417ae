"""End-to-end observatory tests over a real fpt-core pipeline."""

from repro.analysis.metrics import GroundTruth, WindowDecision
from repro.obsv import Observatory
from repro.telemetry import Telemetry

from .helpers import ALARM_SCRIPT, SCORED_PIPELINE_CONFIG, build_core


def run_scored_pipeline(observatory, script=ALARM_SCRIPT, telemetry=None):
    core = build_core(
        SCORED_PIPELINE_CONFIG,
        services={
            "script": {"src": script},
            "observatory": observatory,
        },
        telemetry=telemetry,
    )
    observatory.attach(core)
    core.run_until(float(len(script)))
    return core


class TestPipeline:
    def test_alarms_flow_into_scoreboard_with_latency(self):
        observatory = Observatory()
        observatory.register_ground_truth(
            "CPUHog",
            GroundTruth(faulty_node="slave01", inject_time=2.0),
        )
        core = run_scored_pipeline(observatory)
        board = core.instance("board")
        assert len(board.alarms) == 3  # t=3, 4 and 7
        row = observatory.scoreboard_obj()["alarms"]["union.alarms"]
        assert row["true_alarms"] == 3
        assert row["false_alarms"] == 0
        assert row["fingerpointing_latency_s"] == 1.0  # inject 2 -> alarm 3
        # One record per delivery, each walked over a union-forwarded
        # multi-hop chain.
        assert [r.alarm_time for r in observatory.records] == [3.0, 4.0, 7.0]
        for record in observatory.records:
            assert record.sink == "board"
            assert record.measured
            assert record.delivered == ("thr.alarms", "union.alarms")
            assert record.total_sim_s is not None
            assert record.total_wall_s >= 0.0
        core.close()

    def test_decision_batches_route_to_detector_rows(self):
        observatory = Observatory()
        observatory.register_ground_truth(
            "CPUHog",
            GroundTruth(faulty_node="slave01", inject_time=2.0),
        )
        decisions = [
            [WindowDecision("slave01", 2.0, 3.0, alarmed=True)],
            [WindowDecision("slave01", 3.0, 4.0, alarmed=False)],
        ]
        core = build_core(
            """
            [scripted]
            id = src
            node = slave01

            [print]
            id = board
            input[d] = src.value
            """,
            services={
                "script": {"src": decisions},
                "observatory": observatory,
            },
        )
        observatory.attach(core)
        core.run_until(float(len(decisions)))
        row = observatory.scoreboard_obj()["decisions"]["src.value"]
        assert (row["tp"], row["fp"], row["fn"], row["tn"]) == (1, 0, 1, 0)
        assert observatory.health_obj()["decisions_seen"] == 2
        assert observatory.records == ()
        core.close()

    def test_latency_histograms_reach_telemetry(self):
        telemetry = Telemetry(trace=False)
        observatory = Observatory(telemetry=telemetry)
        observatory.register_ground_truth(
            "CPUHog",
            GroundTruth(faulty_node="slave01", inject_time=2.0),
        )
        core = run_scored_pipeline(observatory, telemetry=telemetry)
        text = telemetry.metrics.render_prometheus()
        assert 'asdf_alarm_sim_latency_seconds' in text
        assert 'stage="total"' in text
        assert 'fault="CPUHog"' in text
        core.close()


class TestViews:
    def build(self):
        observatory = Observatory()
        observatory.register_ground_truth(
            "CPUHog",
            GroundTruth(faulty_node="slave01", inject_time=2.0),
        )
        core = run_scored_pipeline(observatory)
        return observatory, core

    def test_health_obj_counts(self):
        observatory, core = self.build()
        health = observatory.health_obj()
        assert health["status"] == "ok"
        assert health["alarms_seen"] == 3
        assert health["sim_time_s"] == float(len(ALARM_SCRIPT))
        assert health["writes_observed"] > 0
        core.close()

    def test_status_obj_names_real_edges(self):
        observatory, core = self.build()
        status = observatory.status_obj()
        assert "board" in status["instances"]
        edges = {
            (edge["output"], edge["to"]) for edge in status["edges"]
        }
        assert ("union.alarms", "board") in edges
        assert ("src.value", "thr") in edges
        core.close()

    def test_detached_observatory_reports_so(self):
        observatory = Observatory()
        assert observatory.health_obj()["status"] == "detached"
        assert observatory.sim_time() is None
        assert "instances" not in observatory.status_obj()

    def test_write_scoreboard(self, tmp_path):
        observatory, core = self.build()
        path = observatory.write_scoreboard(directory=str(tmp_path))
        assert (tmp_path / "BENCH_scoreboard.json").exists()
        assert path.endswith("BENCH_scoreboard.json")
        core.close()
