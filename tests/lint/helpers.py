"""The per-node deployment text: one ``sadc -> knn -> ibuffer`` chain
per node.

``build_asdf_config_text`` renders one instance per stage; hand-written
configs and flight archives recorded before that still carry one chain
per node.  This renders that shape around the generated analysis tail,
for the lints that price it and for the replay test that holds DESIGN.md
to "old archives replay".
"""

from repro.experiments import ScenarioConfig, build_asdf_config_text


def slave_names(slaves):
    return [f"slave{i + 1:03d}" for i in range(slaves)]


def per_node_knn_text(slaves, **kwargs):
    config = ScenarioConfig(num_slaves=slaves, **kwargs)
    return per_node_knn_deployment(slave_names(slaves), config)


def per_node_knn_deployment(nodes, config):
    """``build_asdf_config_text(nodes, config)`` with one ``sadc``, one
    ``knn`` and one ``ibuffer`` per node in place of the fleet stages."""
    generated = build_asdf_config_text(nodes, config)
    lines = []
    for node in nodes:
        lines += [
            "[sadc]",
            f"id = sadc_{node}",
            f"nodes = {node}",
            "interval = 1.0",
            "",
            "[knn]",
            f"id = onenn_{node}",
            f"input[input] = sadc_{node}.{node}",
            "model = bb_model",
            "k = 1",
            "",
            "[ibuffer]",
            f"id = buf_{node}",
            f"input[input] = onenn_{node}.output0",
            f"size = {config.ibuffer_size}",
            "",
        ]
    tail = generated[generated.index("[analysis_bb]"):]
    for node in nodes:
        tail = tail.replace(f"= buf.{node}\n", f"= @buf_{node}\n")
    return "\n".join(lines) + "\n" + tail
