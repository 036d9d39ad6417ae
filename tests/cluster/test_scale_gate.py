"""``check_cluster_scale_gate`` over plain dicts: no cluster is booted."""

import json
from pathlib import Path

import pytest

from repro.cluster.driver import CLUSTER_SCALE_FORMAT, check_cluster_scale_gate

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_cluster.json"


def scale_bench(rates, failures=()):
    """A trajectory document with ``rates`` = {nodes: samples_per_sec}."""
    return {
        "format": CLUSTER_SCALE_FORMAT,
        "node_counts": sorted(rates),
        "sweep": [
            {"nodes": nodes, "samples_per_sec": rate}
            for nodes, rate in sorted(rates.items())
        ],
        "failures": list(failures),
    }


@pytest.fixture()
def baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(scale_bench({3: 6.0, 10: 20.0})))
    return str(path)


class TestClusterScaleGate:
    def test_holding_rates_pass_and_say_what_was_compared(self, baseline):
        ok, message = check_cluster_scale_gate(
            scale_bench({3: 5.0, 10: 19.0, 25: 50.0}), baseline, slack=0.4
        )
        assert ok
        assert "2 node count(s) [3, 10]" in message

    def test_regressed_rate_fails(self, baseline):
        ok, message = check_cluster_scale_gate(
            scale_bench({3: 6.0, 10: 7.9}), baseline, slack=0.4
        )
        assert not ok
        assert "samples/sec at 10 nodes regressed: 7.9 < 8.0" in message

    def test_disjoint_node_counts_fail_instead_of_comparing_nothing(
        self, baseline
    ):
        ok, message = check_cluster_scale_gate(
            scale_bench({4: 9.0, 50: 90.0}), baseline
        )
        assert not ok
        assert "nothing was compared" in message

    def test_unreadable_baseline_fails(self, tmp_path):
        ok, message = check_cluster_scale_gate(
            scale_bench({3: 6.0}), str(tmp_path / "absent.json")
        )
        assert not ok and "cannot read baseline" in message
        (tmp_path / "torn.json").write_text("{")
        ok, message = check_cluster_scale_gate(
            scale_bench({3: 6.0}), str(tmp_path / "torn.json")
        )
        assert not ok and "cannot read baseline" in message

    def test_wrong_format_fails_on_either_side(self, baseline, tmp_path):
        bench = scale_bench({3: 6.0})
        ok, message = check_cluster_scale_gate(
            dict(bench, format="asdf-cluster-bench/1"), baseline
        )
        assert not ok and "unexpected format" in message
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(bench, format="asdf-bench/1")))
        ok, message = check_cluster_scale_gate(bench, str(other))
        assert not ok and "nothing was compared" in message

    def test_the_sweeps_own_failures_fail_without_a_baseline(self):
        ok, message = check_cluster_scale_gate(scale_bench({3: 6.0}))
        assert ok and "no baseline given" in message
        ok, message = check_cluster_scale_gate(
            scale_bench({3: 6.0}, failures=["nodes=3: no samples in sustain window"])
        )
        assert not ok and "no samples in sustain window" in message

    def test_committed_trajectory_gates_against_itself(self):
        """The committed sweep still carries a per-entry ``codec`` key the
        gate used to filter on; it no longer reads it."""
        bench = json.loads(COMMITTED.read_text())
        ok, message = check_cluster_scale_gate(bench, str(COMMITTED))
        assert ok, message
        assert "3 node count(s) [3, 10, 25]" in message
