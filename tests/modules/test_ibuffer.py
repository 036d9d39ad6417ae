"""Tests for the ibuffer rate-matching module: one lane per node."""

import pytest

from repro.core import ConfigError

from .helpers import build_core, collected


def make_core(values, size=3, slide=None):
    slide_line = f"slide = {slide}\n" if slide is not None else ""
    config = (
        "[scripted]\nid = src\nnode = slave01\n\n"
        f"[ibuffer]\nid = buf\ninput[input] = src.value\nsize = {size}\n{slide_line}\n"
        "[print]\nid = sink\ninput[a] = buf.slave01\n"
    )
    return build_core(config, {"script": {"src": values}})


def make_fleet_core(scripts, size=2):
    """One scripted source per node, all wired to one ibuffer."""
    config = ""
    for node in scripts:
        config += f"[scripted]\nid = src_{node}\nnode = {node}\n\n"
    config += "[ibuffer]\nid = buf\n" + "".join(
        f"input[input] = src_{node}.value\n" for node in scripts
    ) + f"size = {size}\n\n"
    for node in scripts:
        config += f"[print]\nid = sink_{node}\ninput[a] = buf.{node}\n\n"
    return build_core(
        config, {"script": {f"src_{n}": values for n, values in scripts.items()}}
    )


class TestBatching:
    def test_emits_batches_of_size(self):
        core = make_core(list(range(7)), size=3)
        core.run_until(6.0)
        assert collected(core, "sink") == [[0, 1, 2], [3, 4, 5]]

    def test_tumbling_default_slide(self):
        core = make_core(list(range(6)), size=2)
        core.run_until(5.0)
        assert collected(core, "sink") == [[0, 1], [2, 3], [4, 5]]

    def test_sliding_batches(self):
        core = make_core(list(range(5)), size=3, slide=1)
        core.run_until(4.0)
        assert collected(core, "sink") == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]

    def test_batches_emitted_counter(self):
        core = make_core(list(range(9)), size=3)
        core.run_until(8.0)
        assert core.instance("buf").batches_emitted == 3

    def test_incomplete_tail_not_emitted(self):
        core = make_core(list(range(4)), size=3)
        core.run_until(3.0)
        assert collected(core, "sink") == [[0, 1, 2]]

    def test_origin_propagates_from_upstream(self):
        config = (
            "[scripted]\nid = src\nnode = slave07\n\n"
            "[ibuffer]\nid = buf\ninput[input] = src.value\nsize = 2\n"
        )
        core = build_core(config, {"script": {"src": [1, 2]}})
        assert core.dag.contexts["buf"].outputs["slave07"].origin.node == "slave07"


class TestOneLanePerNode:
    def test_each_node_is_batched_apart(self):
        core = make_fleet_core(
            {"a": [1, 2, 3, 4], "b": [10, 20, 30, 40], "c": [7, 7, 7, 7]}
        )
        core.run_until(3.0)
        assert collected(core, "sink_a") == [[1, 2], [3, 4]]
        assert collected(core, "sink_b") == [[10, 20], [30, 40]]
        assert collected(core, "sink_c") == [[7, 7], [7, 7]]
        assert core.instance("buf").batches_emitted == 6

    def test_a_late_node_does_not_hold_the_others_back(self):
        core = make_fleet_core({"a": [1, 2, 3, 4], "b": [None, None, 5, 6]})
        core.run_until(1.0)
        assert collected(core, "sink_a") == [[1, 2]]
        assert collected(core, "sink_b") == []
        core.run_until(3.0)
        assert collected(core, "sink_b") == [[5, 6]]

    def test_outputs_follow_the_wired_nodes(self):
        core = make_fleet_core({"b": [1], "a": [1]})
        assert sorted(core.dag.contexts["buf"].outputs) == ["a", "b"]

    def test_one_run_per_upstream_run_whatever_the_fleet(self):
        """An upstream that writes every node's lane in one run (sadc,
        knnfleet) triggers one ibuffer run, not one per node."""
        from repro.modules.sadc import SADC_CHANNEL_SERVICE
        from repro.sysstat import NODE_METRICS

        from .helpers import FakeChannel

        nodes = [f"slave{i:02d}" for i in range(1, 6)]
        response = {"node": dict.fromkeys(NODE_METRICS, 1.0)}
        config = (
            f"[sadc]\nid = s\nnodes = {','.join(nodes)}\n\n"
            "[ibuffer]\nid = buf\nsize = 2\n"
            + "".join(f"input[input] = s.{node}\n" for node in nodes)
        )
        channels = {n: FakeChannel({"sample": lambda now: response}) for n in nodes}
        core = build_core(config, {SADC_CHANNEL_SERVICE: channels})
        core.run_until(3.0)
        assert core.scheduler.runs_by_instance == {"s": 4, "buf": 4}
        assert core.instance("buf").batches_emitted == 2 * len(nodes)


class TestValidation:
    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError, match="size"):
            make_core([1], size=0)

    def test_slide_larger_than_size_rejected(self):
        with pytest.raises(ConfigError, match="slide"):
            make_core([1], size=2, slide=3)

    def test_two_inputs_for_one_node_rejected(self):
        config = (
            "[scripted]\nid = a\nnode = slave01\n\n"
            "[scripted]\nid = b\nnode = slave01\n\n"
            "[ibuffer]\nid = buf\ninput[input] = a.value\ninput[input] = b.value\nsize = 2\n"
        )
        with pytest.raises(ConfigError, match="two inputs for node 'slave01'"):
            build_core(config, {"script": {"a": [1], "b": [1]}})

    def test_input_without_a_node_rejected(self):
        config = "[scripted]\nid = a\n\n[ibuffer]\nid = buf\ninput[input] = a.value\n"
        with pytest.raises(ConfigError, match="without node origin"):
            build_core(config, {"script": {"a": [1]}})
