"""ASDF as a pure data-collection engine (paper section 2.1).

"While our primary goal is to support online automated fingerpointing,
ASDF should support offline analyses (for those users wishing to
post-process the gathered data), effectively turning itself into a
data-collection and data-logging engine."

This example wires one sadc collector for three nodes straight into the
``csv_writer`` sink, runs the monitored cluster, then post-processes the
CSV offline to find the busiest node -- no analysis modules involved.

Run:  python examples/offline_collection.py         (~5 s)
"""

import csv
import tempfile
from collections import defaultdict
from pathlib import Path

from repro.core import FptCore, SimClock
from repro.hadoop import ClusterConfig, HadoopCluster
from repro.modules import SADC_CHANNEL_SERVICE, standard_registry
from repro.rpc import InprocChannel, SadcDaemon
from repro.sysstat import NODE_METRICS
from repro.workloads import GridMixConfig, generate_workload

DURATION = 240.0


def build_config_text(nodes, csv_path) -> str:
    """The collection-only wiring: one sadc for every node straight into
    the CSV sink, no analysis modules.  Module-level so ``repro lint``
    golden tests can check it without running the example."""
    config_lines = [
        "[sadc]",
        "id = sadc",
        f"nodes = {','.join(nodes)}",
        "metrics = cpu_idle_pct,net_txkb_per_s",
        "",
        "[csv_writer]",
        "id = logger",
        f"path = {csv_path}",
        "input[all] = @sadc",
    ]
    return "\n".join(config_lines) + "\n"


def main() -> None:
    cluster = HadoopCluster(ClusterConfig(num_slaves=3, seed=2))
    for spec in generate_workload(GridMixConfig(duration_s=DURATION, seed=9)).jobs:
        cluster.schedule_job(spec)

    channels = {
        node: InprocChannel(SadcDaemon(node, cluster.procfs(node)), f"sadc@{node}")
        for node in cluster.slave_names
    }

    csv_path = Path(tempfile.gettempdir()) / "asdf-offline.csv"
    core = FptCore.from_config(
        build_config_text(cluster.slave_names, csv_path),
        standard_registry(),
        SimClock(),
        services={SADC_CHANNEL_SERVICE: channels},
    )

    print(f"logging sadc metrics for {DURATION:.0f}s to {csv_path} ...")
    while cluster.time < DURATION:
        cluster.step(1.0)
        core.run_until(cluster.time)
    core.close()

    # ---- offline post-processing: nothing but the CSV file ----
    busy = defaultdict(list)
    with open(csv_path) as handle:
        for row in csv.reader(handle):
            if row[0] == "timestamp" or "cpu_idle_pct" not in row[1]:
                continue
            node = row[1].split("/")[0]
            busy[node].append(100.0 - float(row[2]))

    print(f"\nlogged {sum(len(v) for v in busy.values())} cpu samples")
    for node in sorted(busy):
        values = busy[node]
        print(f"  {node}: mean busy {sum(values) / len(values):5.1f}%")
    print("\n(plus the full 64-metric vector per node per second, if wired)")
    assert len(busy) == 3


if __name__ == "__main__":
    main()
