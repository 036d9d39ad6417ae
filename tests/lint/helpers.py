"""The per-node ``[knn]`` deployment text.

``build_asdf_config_text`` renders one ``knnfleet``; hand-written
configs and flight archives recorded before that still carry one
``sadc -> knn -> ibuffer`` chain per node.  This renders that older
text around the generated analysis tail, for the lints that price it
and for the replay test that holds DESIGN.md to "old archives replay".
"""

from repro.experiments import ScenarioConfig, build_asdf_config_text


def slave_names(slaves):
    return [f"slave{i + 1:03d}" for i in range(slaves)]


def per_node_knn_text(slaves, **kwargs):
    config = ScenarioConfig(num_slaves=slaves, **kwargs)
    return per_node_knn_deployment(slave_names(slaves), config)


def per_node_knn_deployment(nodes, config):
    """``build_asdf_config_text(nodes, config)`` as it read before the
    generator emitted ``knnfleet``."""
    generated = build_asdf_config_text(nodes, config)
    lines = []
    for node in nodes:
        lines += [
            "[sadc]",
            f"id = sadc_{node}",
            f"node = {node}",
            "interval = 1.0",
            "",
            "[knn]",
            f"id = onenn_{node}",
            f"input[input] = sadc_{node}.vector",
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
    return "\n".join(lines) + "\n" + tail
