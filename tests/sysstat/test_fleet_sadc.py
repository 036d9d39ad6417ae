"""The one-pass fleet ``sadc`` against its oracle, the per-node ``Sadc``
(``sadc_oracle.py``).

Parity is ``==`` element for element, never ``approx``: the fleet pass
mirrors ``Sadc._node_metrics`` term for term, and every test here polls
both with the same (node, now) sequence and counts mismatching elements.
"""

import dataclasses
import hashlib
import sys
import threading

import pytest

from repro.experiments import ScenarioConfig, run_scenario, train_blackbox_model
from repro.faults import FAULT_NAMES, FaultSpec, make_fault
from repro.hadoop import ClusterConfig, HadoopCluster
from repro.sysstat import NODE_METRICS
from repro.sysstat.fleet_sadc import FleetNodeSampler
from repro.workloads.gridmix import GridMixConfig, generate_workload

from .sadc_oracle import Sadc, SampledProcFS, SimProcFS, snapshot


def busy_cluster(num_slaves, seed=3, duration_s=300.0):
    cluster = HadoopCluster(ClusterConfig(num_slaves=num_slaves, seed=seed))
    workload = GridMixConfig(duration_s=duration_s, seed=seed + 17)
    for spec in generate_workload(workload).jobs:
        cluster.schedule_job(spec)
    return cluster


class Pair:
    """A node's fleet sampler next to a private ``Sadc`` over the same
    procfs; :meth:`poll` feeds both and counts what differs."""

    def __init__(self, procfs):
        self.fleet = procfs.sampler()
        self.oracle = Sadc(procfs)
        self.samples = 0
        self.mismatches = 0

    def poll(self, now):
        sample = self.oracle.collect(now)
        row = self.fleet.collect_vector(now)
        if sample is None or row is None:
            self.mismatches += (sample is None) != (row is None)
            return None
        self.samples += 1
        self.mismatches += int((row != sample.node_vector()).sum())
        return row


def pairs_of(cluster):
    return [Pair(cluster.procfs(node)) for node in cluster.slave_names]


def assert_parity(pairs, at_least):
    assert sum(p.mismatches for p in pairs) == 0
    assert sum(p.samples for p in pairs) >= at_least


class TestSamplerChoice:
    def test_array_backed_procfs_joins_the_fleet_pass(self):
        cluster = busy_cluster(2)
        sampler = cluster.procfs("slave01").sampler()
        assert isinstance(sampler, FleetNodeSampler)

    def test_dataclass_procfs_gets_a_per_node_sadc(self):
        # src/ samples only through the fleet pass; a dataclass procfs
        # gets its sampler from the oracle.
        assert not hasattr(SimProcFS(), "sampler")
        assert isinstance(SampledProcFS().sampler(), Sadc)

    def test_per_node_vector_is_the_catalog_ordered_sample(self):
        procfs = SampledProcFS()
        sampler, oracle = procfs.sampler(), Sadc(procfs)
        assert sampler.collect_vector(0.0) is None
        oracle.collect(0.0)
        procfs.cpu.user += 1.0
        procfs.cpu.idle += 3.0
        row = sampler.collect_vector(1.0)
        assert row.shape == (len(NODE_METRICS),)
        assert (row == oracle.collect(1.0).node_vector()).all()


@pytest.mark.parametrize("fault_name", [None, *FAULT_NAMES])
def test_fleet50_matches_per_node_sadc(fault_name):
    """50 slaves, 300 sim-s, fault-free and under each Table 2 fault."""
    cluster = busy_cluster(50)
    if fault_name is not None:
        make_fault(fault_name).arm(
            cluster, FaultSpec(node=cluster.slave_names[25], inject_time=60.0)
        )
    pairs = pairs_of(cluster)
    ticks = 300
    for _ in range(ticks):
        cluster.step(1.0)
        for pair in pairs:
            pair.poll(cluster.time)
    assert_parity(pairs, at_least=50 * (ticks - 1))
    # Lock-step polling shares one pass per fleet tick.
    assert cluster.fleet.sadc.passes == ticks


class TestPollSchedules:
    """Per-sampler semantics are exact on any schedule, not only in
    lock step: each sampler differences against its own previous poll."""

    def run(self, due, ticks=40, slaves=5):
        """``due(tick, k)`` -> poll times of node ``k`` after ``tick``."""
        cluster = busy_cluster(slaves, seed=5, duration_s=ticks)
        pairs = pairs_of(cluster)
        for tick in range(ticks):
            cluster.step(1.0)
            for k, pair in enumerate(pairs):
                for now in due(tick, k, cluster.time):
                    pair.poll(now)
        return pairs

    def test_staggered_poll_times(self):
        pairs = self.run(lambda tick, k, t: [t + 0.1 * k])
        assert_parity(pairs, at_least=5 * 39)

    def test_skipped_rounds(self):
        pairs = self.run(lambda tick, k, t: [] if (tick + k) % 3 == 0 else [t])
        assert_parity(pairs, at_least=5 * 20)

    def test_late_priming(self):
        pairs = self.run(lambda tick, k, t: [t] if tick >= 7 * k else [])
        assert_parity(pairs, at_least=100)
        assert [p.samples for p in pairs] == [39, 32, 25, 18, 11]

    def test_own_cadence(self):
        pairs = self.run(lambda tick, k, t: [t] if tick % (k + 1) == 0 else [])
        assert_parity(pairs, at_least=80)

    def test_second_poll_at_the_same_now_returns_none(self):
        cluster = busy_cluster(3, seed=5)
        pairs = pairs_of(cluster)
        for _ in range(10):
            cluster.step(1.0)
            for pair in pairs:
                pair.poll(cluster.time)
                assert pair.poll(cluster.time) is None
        assert_parity(pairs, at_least=3 * 9)

    def test_poll_time_moving_backwards_returns_none(self):
        cluster = busy_cluster(2, seed=5)
        pairs = pairs_of(cluster)
        for now in (1.0, 2.0, 1.5, 3.0):
            cluster.step(1.0)
            for pair in pairs:
                pair.poll(now)
        assert_parity(pairs, at_least=2 * 2)

    def test_two_samplers_on_one_node_are_independent(self):
        cluster = busy_cluster(2, seed=5)
        procfs = cluster.procfs("slave01")
        every, third = Pair(procfs), Pair(procfs)
        for tick in range(12):
            cluster.step(1.0)
            every.poll(cluster.time)
            if tick % 3 == 0:
                third.poll(cluster.time)
        assert_parity([every, third], at_least=11 + 3)

    def test_sampler_added_mid_run_primes_on_its_own(self):
        cluster = busy_cluster(3, seed=5)
        pairs = pairs_of(cluster)[:2]
        for tick in range(12):
            cluster.step(1.0)
            if tick == 5:
                pairs.append(Pair(cluster.procfs("slave03")))
            for pair in pairs:
                pair.poll(cluster.time)
        assert_parity(pairs, at_least=2 * 11 + 5)


class TestCounterEdges:
    def test_counter_moving_backwards_is_clamped_at_zero(self):
        cluster = busy_cluster(4, seed=7)
        pairs = pairs_of(cluster)
        arrays = cluster.fleet.a
        victim = cluster.fleet.index["slave02"]
        hit = None
        for tick in range(20):
            cluster.step(1.0)
            if tick == 10:
                for key in ("disk_sectors_read", "nic_rx_bytes", "stat_ctxt",
                            "cpu_user", "disk_reads_completed"):
                    arrays[key][victim] -= 1e9
            rows = [pair.poll(cluster.time) for pair in pairs]
            if tick == 10:
                hit = rows[1]
        assert_parity(pairs, at_least=4 * 19)
        for name in ("bread_per_s", "net_rxkb_per_s", "cswch_per_s",
                     "cpu_user_pct", "rtps"):
            assert hit[NODE_METRICS.index(name)] == 0.0

    def test_process_table_grows_and_shrinks(self):
        cluster = busy_cluster(4, seed=7)
        pairs = pairs_of(cluster)
        node = cluster.nodes["slave03"]
        plist = NODE_METRICS.index("plist_sz")
        seen = []
        for tick in range(30):
            if tick == 8:
                for pid in (9001, 9002, 9003):
                    proc = node.procfs.process(pid, "java")
                    proc.rss_kb, proc.vsz_kb = 64e3, 256e3
            if tick == 18:
                node.remove_process(9001)
                node.remove_process(9003)
            cluster.step(1.0)
            rows = [pair.poll(cluster.time) for pair in pairs]
            if rows[2] is not None:
                seen.append(rows[2][plist])
        assert_parity(pairs, at_least=4 * 29)
        assert max(seen) - min(seen) >= 3.0

    def test_kernel_tables_are_fleet_columns(self):
        cluster = busy_cluster(2, seed=7)
        pairs = pairs_of(cluster)
        cluster.procfs("slave02").tables.file_nr = 4321.0
        for _ in range(3):
            cluster.step(1.0)
            rows = [pair.poll(cluster.time) for pair in pairs]
        assert_parity(pairs, at_least=2 * 2)
        assert rows[1][NODE_METRICS.index("file_nr")] == 4321.0
        assert snapshot(cluster.procfs("slave02")).tables.file_nr == 4321.0


def test_concurrent_pollers_share_one_pass_per_round():
    """Pull-mode node hosts reach the shared collector from one thread
    per connection: rows stay exact and a round still costs one pass."""
    cluster = busy_cluster(12, seed=9)
    nodes = cluster.slave_names
    samplers = [cluster.procfs(node).sampler() for node in nodes]
    oracles = [Sadc(cluster.procfs(node)) for node in nodes]
    rounds, workers = 25, 6
    got = [[None] * len(nodes) for _ in range(rounds)]
    start = threading.Barrier(workers + 1)
    done = threading.Barrier(workers + 1)
    errors = []

    def worker(w):
        try:
            for r in range(rounds):
                start.wait(timeout=30)
                for k in range(w, len(nodes), workers):
                    got[r][k] = samplers[k].collect_vector(float(r + 1))
                done.wait(timeout=30)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,), daemon=True)
               for w in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        expected = []
        for r in range(rounds):
            cluster.step(1.0)
            expected.append([o.collect(float(r + 1)) for o in oracles])
            start.wait(timeout=30)
            done.wait(timeout=30)
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert cluster.fleet.sadc.passes == rounds
    for r in range(rounds):
        for k in range(len(nodes)):
            if expected[r][k] is None:
                assert got[r][k] is None
            else:
                assert (got[r][k] == expected[r][k].node_vector()).all()


# -- scenario level ----------------------------------------------------------
#
# The digests were taken at the commit before the fleet pass (per-node
# ``Sadc`` behind JSON in-process frames, on the per-node simulator with
# per-node ``knn`` and on the fleet with ``knnfleet`` alike): the fleet
# pass and the binary in-process framing must not move one alarm,
# decision or count.

SCENARIO = dict(
    num_slaves=6, duration_s=540.0, seed=1, fault_name="CPUHog",
    inject_time=120.0,
)

#: That commit gave one digest on both paths (5 black-box alarms, 4 true
#: positives over 48 node-windows).
PINNED_MODEL = "04ceb873580f37f8f85299f442ce0572c5d629515c77b87ece307b248db38a3b"
PINNED_SCENARIO = "ec06f397122731e76eb8e524dd3f50e82392b27d3979cd24041fd2d92e601dde"


def train():
    return train_blackbox_model(
        cluster_config=ClusterConfig(num_slaves=6, seed=1004),
        duration_s=150.0, num_states=6, seed=4,
    )


def model_digest(model):
    return hashlib.sha256(
        model.centroids.tobytes() + model.sigma.tobytes()
    ).hexdigest()


def scenario_digest(result):
    def alarms(items):
        return [(a.time, a.node, a.source, a.detail) for a in items]

    def decisions(items):
        return [(d.node, d.window_start, d.window_end, d.alarmed)
                for d in items]

    key = (
        alarms(result.alarms_bb), alarms(result.alarms_wb),
        alarms(result.alarms_all),
        decisions(result.decisions_bb), decisions(result.decisions_wb),
        decisions(result.decisions_all),
        dataclasses.astuple(result.counts_bb),
        dataclasses.astuple(result.counts_wb),
        dataclasses.astuple(result.counts_all),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


@pytest.fixture(scope="module")
def model():
    return train()


class TestScenarioUnchanged:
    def test_training_centroids_are_byte_identical(self, model):
        assert model_digest(model) == PINNED_MODEL

    def test_alarms_decisions_and_counts_equal_the_parent_commit(self, model):
        result = run_scenario(ScenarioConfig(**SCENARIO), model=model)
        assert len(result.alarms_bb) == 5
        assert scenario_digest(result) == PINNED_SCENARIO
