"""The per-node ``[knn]`` deployment text, for the lints that price it.

``build_asdf_config_text`` renders one ``knnfleet``; hand-written
configs and flight archives recorded before that still carry one
``sadc -> knn -> ibuffer`` chain per node, which FPT302 flags at fleet
scale.  This renders that older text around the generated analysis tail.
"""

from repro.experiments import ScenarioConfig, build_asdf_config_text


def slave_names(slaves):
    return [f"slave{i + 1:03d}" for i in range(slaves)]


def per_node_knn_text(slaves, **kwargs):
    config = ScenarioConfig(num_slaves=slaves, **kwargs)
    nodes = slave_names(slaves)
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
