"""A failing RPC channel costs samples, not the run, and fingers nobody.

``sadc`` and ``hadoop_log`` turn a ``ProtocolError`` / ``RemoteError``
from ``channel.call`` into a skipped sample and a ``poll_errors`` count
(the smallest piece of ROADMAP item 3's rule).  The channel wrapper
raises by simulated time, so every run here repeats exactly.
"""

import pytest

from repro.experiments import ScenarioConfig, shared_model
from repro.experiments.scenario import deploy_asdf
from repro.hadoop import HadoopCluster
from repro.rpc.protocol import ProtocolError, RemoteError
from repro.workloads import generate_workload

CONFIG = ScenarioConfig(num_slaves=6, duration_s=480.0, seed=11, fault_name=None)
VICTIM = "slave03"


@pytest.fixture(scope="module")
def model():
    return shared_model(CONFIG, training_duration_s=200.0)


def fail_between(channel, start_s: float, stop_s: float, error: Exception) -> None:
    """Make ``channel.call`` raise ``error`` for ``start_s <= now < stop_s``."""
    real_call = channel.call

    def call(method, **params):
        if start_s <= params["now"] < stop_s:
            raise error
        return real_call(method, **params)

    channel.call = call


def run(model, start_s=None, stop_s=None):
    """The fault-free scenario; ``VICTIM``'s three channels fail in
    ``[start_s, stop_s)`` when given.  Returns the deployed handles."""
    cluster = HadoopCluster(CONFIG.cluster_config())
    for spec in generate_workload(CONFIG.workload_config()).jobs:
        cluster.schedule_job(spec)
    handles = deploy_asdf(cluster, model, CONFIG)
    if start_s is not None:
        fail_between(handles.sadc_channels[VICTIM], start_s, stop_s,
                     ProtocolError("injected: bad frame"))
        fail_between(handles.hl_tt_channels[VICTIM], start_s, stop_s,
                     RemoteError("injected: daemon raised"))
        fail_between(handles.hl_dn_channels[VICTIM], start_s, stop_s,
                     ProtocolError("injected: bad frame"))
    while cluster.time < CONFIG.duration_s - 1e-9:
        cluster.step(1.0)
        handles.core.run_until(cluster.time)
    return handles


def collected(handles) -> dict:
    return dict(handles.core.instance("sadc").node_samples)


def poll_errors(handles) -> dict:
    return handles.core.instance("sadc").node_poll_errors


def alarmed_nodes(handles) -> set:
    return {
        sample.value.node
        for sample in handles.core.instance("CombinedAlarm").received
    }


@pytest.fixture(scope="module")
def healthy(model):
    return run(model)


class TestNoErrorPath:
    def test_counts_nothing_and_alarms_nobody(self, healthy):
        assert alarmed_nodes(healthy) == set()
        assert healthy.core.instance("hl").poll_errors == 0
        assert poll_errors(healthy) == dict.fromkeys(healthy.sadc_channels, 0)


class TestThreeFailedPolls:
    @pytest.fixture(scope="class")
    def flapped(self, model):
        return run(model, 200.0, 203.0)

    def test_the_victim_skips_three_samples_and_the_peers_none(
        self, healthy, flapped
    ):
        baseline = collected(healthy)
        expected = dict(baseline, **{VICTIM: baseline[VICTIM] - 3})
        assert collected(flapped) == expected
        assert poll_errors(flapped) == dict(
            dict.fromkeys(baseline, 0), **{VICTIM: 3}
        )

    def test_the_log_daemons_backlog_arrives_with_the_next_poll(
        self, healthy, flapped
    ):
        module = flapped.core.instance("hl")
        assert module.poll_errors == 6  # tt and dn, three polls each
        assert module.seconds_dropped == 0
        assert module.seconds_emitted == healthy.core.instance("hl").seconds_emitted

    def test_nobody_is_alarmed_by_it(self, flapped):
        assert alarmed_nodes(flapped) == set()


class TestChannelsDeadForTheRestOfTheRun:
    @pytest.fixture(scope="class")
    def dead(self, model):
        return run(model, 200.0, float("inf"))

    def test_the_peers_keep_every_sample(self, healthy, dead):
        baseline = collected(healthy)
        got = collected(dead)
        assert {n: got[n] for n in got if n != VICTIM} == {
            n: baseline[n] for n in baseline if n != VICTIM
        }
        assert poll_errors(dead)[VICTIM] == 281  # t = 200 .. 480

    def test_unsynchronised_seconds_are_dropped_not_raised(self, dead):
        module = dead.core.instance("hl")
        assert module.poll_errors == 2 * 281
        assert module.seconds_dropped > 200

    def test_nobody_is_alarmed_by_it(self, dead):
        assert alarmed_nodes(dead) == set()
