"""Tests for the fleet-batched knnfleet classification module."""

import numpy as np
import pytest

from analysis.oracles import nearest_k
from repro.core import ConfigError, ModuleError

from .helpers import build_core, collected, vector_series


class Model:
    """Bare centroids + sigma, as produced by offline training."""

    def __init__(self, centroids, sigma):
        self.centroids = np.asarray(centroids, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)


NODES = ("slave01", "slave02", "slave03")


def make_fleet_core(series_by_node, model, k=1):
    lines = []
    for node in NODES:
        lines += [f"[scripted]\nid = src_{node}\nnode = {node}\n"]
    lines += [f"[knnfleet]\nid = nn\nmodel = bb_model\nk = {k}"]
    lines += [
        f"input[v{i}] = src_{node}.value" for i, node in enumerate(NODES)
    ]
    lines += [""]
    for node in NODES:
        lines += [f"[print]\nid = sink_{node}\ninput[a] = nn.{node}\n"]
    scripts = {f"src_{node}": series_by_node[node] for node in NODES}
    return build_core(
        "\n".join(lines), {"script": scripts, "bb_model": model}
    )


def make_pernode_core(series_by_node, model, k=1):
    lines = []
    for node in NODES:
        lines += [
            f"[scripted]\nid = src_{node}\nnode = {node}\n",
            f"[knn]\nid = nn_{node}\ninput[input] = src_{node}.value\n"
            f"model = bb_model\nk = {k}\n",
            f"[print]\nid = sink_{node}\ninput[a] = nn_{node}.output0\n",
        ]
    scripts = {f"src_{node}": series_by_node[node] for node in NODES}
    return build_core(
        "\n".join(lines), {"script": scripts, "bb_model": model}
    )


def series():
    rng = np.random.default_rng(23)
    return {
        node: vector_series(rng.gamma(2.0, 50.0, size=(6, 4)))
        for node in NODES
    }


def model():
    rng = np.random.default_rng(31)
    return Model(rng.gamma(2.0, 1.0, size=(5, 4)), np.full(4, 2.0))


class TestFleetClassification:
    def test_identical_to_per_node_knn_modules(self):
        """The fleet batch must match N independent knn instances."""
        data, shared = series(), model()
        fleet = make_fleet_core(data, shared)
        pernode = make_pernode_core(data, shared)
        fleet.run_until(5.0)
        pernode.run_until(5.0)
        for node in NODES:
            assert collected(fleet, f"sink_{node}") == collected(
                pernode, f"sink_{node}"
            )

    def test_identical_for_k_greater_than_one(self):
        data, shared = series(), model()
        fleet = make_fleet_core(data, shared, k=3)
        pernode = make_pernode_core(data, shared, k=3)
        fleet.run_until(5.0)
        pernode.run_until(5.0)
        for node in NODES:
            values = collected(fleet, f"sink_{node}")
            assert values == collected(pernode, f"sink_{node}")
            assert all(len(v) == 3 for v in values)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_the_documented_formula_sample_by_sample(self, k):
        """``knn`` is this class bound to one input, so the oracle here
        is the paper's formula, one sample at a time: ``s' = log(1 + s) /
        sigma``, then ``nearest_k``.  Nodes skip ticks so the backlogs a
        run stacks are of uneven length (and sometimes empty)."""
        rng = np.random.default_rng(41)
        shared = Model(
            rng.gamma(2.0, 1.0, size=(5, 4)), rng.uniform(0.5, 2.0, size=4)
        )
        ticks = 12
        writes = {  # 12 + 6 + 3 = 21 writes: seven runs of three updates
            "slave01": range(0, ticks),
            "slave02": range(0, ticks, 2),
            "slave03": range(1, ticks, 4),
        }
        data = {
            node: [
                rng.gamma(2.0, 50.0, size=4) if t in at else None
                for t in range(ticks)
            ]
            for node, at in writes.items()
        }
        core = make_fleet_core(data, shared, k=k)
        core.run_until(float(ticks - 1))
        assert core.scheduler.runs_by_instance["nn"] == 7
        for node in NODES:
            expected = []
            for t, raw in enumerate(data[node]):
                if raw is None:
                    continue
                scaled = np.log1p(np.maximum(raw, 0.0)) / shared.sigma
                nearest = [int(i) for i in nearest_k(scaled, shared.centroids, k)]
                expected.append((float(t), nearest[0] if k == 1 else nearest))
            got = [
                (s.timestamp, s.value)
                for s in core.instance(f"sink_{node}").received
            ]
            assert got == expected

    def test_counts_samples_across_fleet(self):
        core = make_fleet_core(series(), model())
        core.run_until(5.0)
        assert core.instance("nn").samples_classified == 6 * len(NODES)

    def test_output_timestamps_follow_samples(self):
        core = make_fleet_core(series(), model())
        core.run_until(5.0)
        stamps = [
            s.timestamp for s in core.instance("sink_slave01").received
        ]
        assert stamps == [float(t) for t in range(6)]


class TestConfigErrors:
    def test_requires_node_origins(self):
        config = (
            "[scripted]\nid = src\n\n"
            "[knnfleet]\nid = nn\nmodel = bb_model\n"
            "input[v0] = src.value\n\n"
            "[print]\nid = sink\ninput[a] = nn.slave01\n"
        )
        with pytest.raises(ConfigError, match="node origin"):
            build_core(
                config, {"script": {"src": [[1.0]]}, "bb_model": model()}
            )

    def test_rejects_duplicate_node(self):
        config = (
            "[scripted]\nid = a\nnode = slave01\n\n"
            "[scripted]\nid = b\nnode = slave01\n\n"
            "[knnfleet]\nid = nn\nmodel = bb_model\n"
            "input[v0] = a.value\ninput[v1] = b.value\n\n"
            "[print]\nid = sink\ninput[x] = nn.slave01\n"
        )
        with pytest.raises(ConfigError, match="two inputs"):
            build_core(
                config,
                {"script": {"a": [[1.0]], "b": [[1.0]]}, "bb_model": model()},
            )

    def test_rejects_bad_sigma(self):
        bad = Model([[0.0, 1.0]], [1.0])
        with pytest.raises(ConfigError, match="sigma"):
            make_fleet_core(series(), bad)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "make_core, culprit",
        [(make_fleet_core, "nn"), (make_pernode_core, "nn_slave02")],
        ids=["knnfleet", "knn"],
    )
    def test_wrong_width_names_sender(self, make_core, culprit):
        """A vector of another width than sigma's is the producer's bug
        (for the fleet, the stack of widths 2, 3, 2 does not even build):
        nothing of that backlog is classified, and the error says which
        instance got it from which node."""
        shared = Model([[0.0, 0.0], [5.0, 5.0]], [1.0, 1.0])
        data = {
            "slave01": [np.ones(2)], "slave02": [np.ones(3)], "slave03": [np.ones(2)],
        }
        core = make_core(data, shared)
        with pytest.raises(ModuleError) as raised:
            core.run_until(0.0)
        message = str(raised.value)
        type_name = core.instance(culprit).type_name
        assert f"{type_name} '{culprit}'" in message
        assert "node 'slave02'" in message
        assert "(3,)" in message and "(2,)" in message
        assert core.instance(culprit).samples_classified == 0
