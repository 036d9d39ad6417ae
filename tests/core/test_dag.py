"""Tests for DAG construction (the paper's section 3.3 algorithm)."""

import pytest

from repro.core import ConfigError, SimClock, build_dag, parse_config

from .helpers import build_registry


def _install_noop_hooks(ctx):
    ctx._schedule_periodic = lambda *args: None
    ctx._set_trigger = lambda *args: None


def build(text: str):
    return build_dag(
        parse_config(text),
        build_registry(),
        SimClock(),
        install_hooks=_install_noop_hooks,
    )


PIPELINE = """
[source]
id = src

[double]
id = dbl
input[input] = src.value

[sink]
id = snk
input[a] = dbl.value
"""


class TestConstruction:
    def test_linear_pipeline_builds(self):
        dag = build(PIPELINE)
        assert sorted(dag.instances) == ["dbl", "snk", "src"]

    def test_edges_record_wiring(self):
        dag = build(PIPELINE)
        edges = {(e.src_instance, e.dst_instance) for e in dag.edges}
        assert edges == {("src", "dbl"), ("dbl", "snk")}

    def test_at_syntax_subscribes_every_output(self):
        dag = build(
            "[source]\nid = a\n\n[source]\nid = b\n\n"
            "[sink]\nid = s\ninput[x] = @a\ninput[x] = @b\n"
        )
        sink_ctx = dag.contexts["s"]
        assert len(sink_ctx.inputs["x"]) == 2

    def test_topological_order_respects_edges(self):
        dag = build(PIPELINE)
        order = dag.topological_order()
        assert order.index("src") < order.index("dbl") < order.index("snk")

    def test_initialization_happens_in_dependency_waves(self):
        # A diamond: src feeds two doubles which feed one sink.
        dag = build(
            "[source]\nid = src\n\n"
            "[double]\nid = d1\ninput[input] = src.value\n\n"
            "[double]\nid = d2\ninput[input] = src.value\n\n"
            "[sink]\nid = s\ninput[a] = d1.value\ninput[b] = d2.value\n"
        )
        assert len(dag.instances) == 4
        assert dag.contexts["s"].connection_count() == 2

    def test_connection_owner_is_recorded(self):
        dag = build(PIPELINE)
        conn = dag.contexts["dbl"].inputs["input"].single()
        assert conn.owner_instance == "dbl"

    def test_to_dot_mentions_every_instance(self):
        dot = build(PIPELINE).to_dot()
        for name in ("src", "dbl", "snk"):
            assert name in dot
        assert dot.startswith("digraph")

    def test_to_dot_escapes_quotes_and_backslashes(self):
        # The config parser rejects exotic ids, but programmatically
        # built specs can carry them; the dot rendering must stay valid.
        from repro.core import InstanceSpec

        dag = build_dag(
            [InstanceSpec("source", 'we"ird\\name')],
            build_registry(),
            SimClock(),
            install_hooks=_install_noop_hooks,
        )
        dot = dag.to_dot()
        assert '"we\\"ird\\\\name"' in dot
        # No unescaped quote may terminate an id early: every line's
        # quoted strings stay balanced.
        for line in dot.splitlines():
            assert line.count('"') - line.count('\\"') * 2 in (0, 2, 4)

    def test_to_dot_run_stats_annotation(self):
        from repro.telemetry import RunStats

        dag = build(PIPELINE)
        stats = {"src": RunStats(12, 0.0005, 0)}
        dot = dag.to_dot(run_stats=stats)
        assert "12 runs, 0.500 ms mean" in dot
        # Instances without stats render unannotated.
        assert "dbl\\n(double)" in dot

    def test_instance_lookup(self):
        dag = build(PIPELINE)
        assert dag.instance("src").instance_id == "src"
        with pytest.raises(ConfigError):
            dag.instance("nope")


class TestConstructionFailures:
    def test_unknown_upstream_instance(self):
        with pytest.raises(ConfigError, match="unknown instance"):
            build("[sink]\nid = s\ninput[a] = ghost.value\n")

    def test_missing_output_name(self):
        with pytest.raises(ConfigError, match="does not exist"):
            build("[source]\nid = src\n\n[sink]\nid = s\ninput[a] = src.wrong\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError, match="own outputs"):
            build("[double]\nid = d\ninput[input] = d.value\n")

    def test_cycle_is_detected(self):
        with pytest.raises(ConfigError, match="wiring cycle"):
            build(
                "[double]\nid = a\ninput[input] = b.value\n\n"
                "[double]\nid = b\ninput[input] = a.value\n"
            )

    def test_at_reference_to_output_less_instance(self):
        with pytest.raises(ConfigError, match="declared no outputs"):
            build("[no_output]\nid = n\n\n[sink]\nid = s\ninput[a] = @n\n")

    def test_unknown_module_type(self):
        with pytest.raises(ConfigError, match="unknown module type"):
            build("[mystery]\nid = m\n")
