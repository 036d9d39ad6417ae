"""White-box diagnosis straight from Hadoop's own logs (paper section 4.4).

Demonstrates the SALSA-style pipeline below the ``hadoop_log`` module:
the simulator produces real Hadoop 0.18-format log text; the parser
infers per-second execution-state vectors from it; and median peer
comparison over window means localizes a reduce-hang (HADOOP-2080)
without touching a single OS counter.

Run:  python examples/whitebox_log_analysis.py      (~10 s)
"""

import numpy as np

from repro.analysis import whitebox_anomalies
from repro.faults import FaultSpec, make_fault
from repro.hadoop import (
    ClusterConfig,
    HadoopCluster,
    StateVectorStream,
    WHITEBOX_STATES,
)
from repro.workloads import GridMixConfig, generate_workload

NUM_SLAVES = 8
DURATION = 720.0
INJECT_AT = 240.0
FAULTY = "slave04"
WINDOW = 60


def main() -> None:
    cluster = HadoopCluster(ClusterConfig(num_slaves=NUM_SLAVES, seed=11))
    for spec in generate_workload(
        GridMixConfig(duration_s=DURATION, seed=23)
    ).jobs:
        cluster.schedule_job(spec)
    make_fault("HADOOP-2080").arm(
        cluster, FaultSpec(node=FAULTY, inject_time=INJECT_AT)
    )
    print(f"simulating {DURATION:.0f}s; HADOOP-2080 on {FAULTY} at t={INJECT_AT:.0f}s...")
    cluster.run_until(DURATION)

    # Show a few raw log lines -- this text is all the white-box path sees.
    print("\nsample of the faulty node's tasktracker log:")
    for record in cluster.tt_logs[FAULTY].records()[:4]:
        print("  " + record.line)

    # Parse every node's logs into per-second state vectors.
    vectors = {}
    for node in cluster.slave_names:
        stream = StateVectorStream(node)
        for record in cluster.tt_logs[node].records():
            stream.feed_line(record.line)
        for record in cluster.dn_logs[node].records():
            stream.feed_line(record.line)
        vectors[node] = np.array(stream.take(int(DURATION)))

    print(f"\nstates: {WHITEBOX_STATES}")
    print(f"\n{'window':>8}  anomalous nodes (|mean - median| > max(1, 2*sigma_med))")
    suspects = {}
    for start in range(0, int(DURATION) - WINDOW + 1, WINDOW):
        means = np.array(
            [vectors[n][start:start + WINDOW].mean(axis=0) for n in cluster.slave_names]
        )
        stds = np.array(
            [vectors[n][start:start + WINDOW].std(axis=0) for n in cluster.slave_names]
        )
        verdict = whitebox_anomalies(means, stds, k=2.0)
        flagged = [
            node
            for node, anomalous in zip(cluster.slave_names, verdict.anomalous_nodes)
            if anomalous
        ]
        for node in flagged:
            suspects[node] = suspects.get(node, 0) + 1
        print(f"[{start:4d},{start + WINDOW:4d})  {flagged or '-'}")

    top = max(suspects, key=suspects.get) if suspects else None
    print(f"\nmost-flagged node: {top} (truth: {FAULTY})")
    assert top == FAULTY
    print("white-box log analysis localized the hung-reduce node.")


if __name__ == "__main__":
    main()
