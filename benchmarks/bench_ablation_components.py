"""Component micro-benchmarks (ablation: where the cycles go).

Not a paper artifact; these quantify the building blocks so regressions
in the substrates show up independently of the end-to-end numbers:

* fpt-core scheduling throughput (runs/second through a small DAG);
* Hadoop log parsing throughput (lines/second);
* state-vector extraction cost;
* k-means training cost at evaluation scale;
* one cluster-simulation tick at evaluation scale.
"""

import numpy as np

from repro.analysis import fit_kmeans
from repro.core import FptCore, Module, ModuleRegistry, RunReason, SimClock
from repro.hadoop import ClusterConfig, HadoopCluster, StateVectorStream
from repro.workloads import GridMixConfig, generate_workload


class _Source(Module):
    type_name = "src"

    def init(self):
        self.out = self.ctx.create_output("value")
        self.ctx.schedule_every(1.0)

    def run(self, reason):
        self.out.write(1.0, self.ctx.clock.now())


class _Relay(Module):
    type_name = "relay"

    def init(self):
        self.conn = self.ctx.input("input").single()
        self.out = self.ctx.create_output("value")

    def run(self, reason):
        for sample in self.conn.pop_all():
            self.out.write(sample.value + 1.0, sample.timestamp)


def test_fptcore_scheduling_throughput(benchmark):
    registry = ModuleRegistry()
    registry.register(_Source)
    registry.register(_Relay)
    config = "[src]\nid = s\n\n" + "\n\n".join(
        f"[relay]\nid = r{i}\ninput[input] = "
        + (f"r{i - 1}.value" if i else "s.value")
        for i in range(10)
    )

    def run_chain():
        core = FptCore.from_config(config, registry, SimClock())
        core.run_until(1000.0)
        return core.scheduler.total_runs

    runs = benchmark(run_chain)
    assert runs == 11 * 1001  # 1 source + 10 relays, ticks 0..1000


def _sample_logs():
    cluster = HadoopCluster(ClusterConfig(num_slaves=6, seed=3))
    for spec in generate_workload(GridMixConfig(duration_s=400.0, seed=4)).jobs:
        cluster.schedule_job(spec)
    cluster.run_until(400.0)
    lines = []
    for node in cluster.slave_names:
        lines += [r.line for r in cluster.tt_logs[node].records()]
        lines += [r.line for r in cluster.dn_logs[node].records()]
    return lines


def test_log_parser_throughput(benchmark):
    lines = _sample_logs()
    assert len(lines) > 500

    def parse_all():
        stream = StateVectorStream("bench")
        for line in lines:
            stream.feed_line(line)
        return stream.lines_parsed

    parsed = benchmark(parse_all)
    assert parsed > 0


def test_state_vector_extraction(benchmark):
    lines = _sample_logs()

    def fed_stream():
        stream = StateVectorStream("bench")
        for line in lines:
            stream.feed_line(line)
        return (stream,), {}

    rows = benchmark.pedantic(
        lambda stream: stream.take(400), setup=fed_stream, rounds=20
    )
    assert np.array(rows).shape == (400, 8)


def test_kmeans_training_cost(benchmark):
    rng = np.random.default_rng(0)
    samples = rng.gamma(2.0, 1.0, size=(3000, 64))

    model = benchmark.pedantic(
        lambda: fit_kmeans(samples, k=10, seed=1), rounds=3, iterations=1
    )
    assert model.centroids.shape == (10, 64)


def test_cluster_tick_cost(benchmark):
    cluster = HadoopCluster(ClusterConfig(num_slaves=10, seed=3))
    for spec in generate_workload(GridMixConfig(duration_s=3600.0, seed=4)).jobs:
        cluster.schedule_job(spec)
    cluster.run_until(60.0)  # warm up to a loaded steady state

    benchmark(cluster.step, 1.0)
