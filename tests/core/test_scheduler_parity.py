"""The compiled write -> trigger -> dispatch path against the dict-based
bookkeeping it replaced (``scheduler_oracle.ReferenceScheduler``).

Seeded random DAGs -- fan-out, fan-in, ``@instance`` wiring, explicit
``trigger_after_updates``, several consumers on one output, a consumer
already queued when more writes reach it, queues small enough to drop,
``latest()`` readers that skip -- run on both; the (instance, reason,
clock) sequence of runs and every connection's counters must be equal.
A second pass opens every door a plan can go stale through while the
DAG is running.
"""

import random

import pytest

from repro.core import FptCore, Module, ModuleRegistry, RunReason, SimClock

from .scheduler_oracle import ReferenceCore

QUEUE_CAPACITY = 3


class _Logged(Module):
    """Appends (instance, reason, clock) to the shared log on every run."""

    def run(self, reason: RunReason) -> None:
        self.ctx.service("log").append(
            (self.instance_id, reason.value, self.ctx.clock.now())
        )
        self.work()


class Emitter(_Logged):
    """Periodic source with ``ports`` outputs; run ``n`` writes ``n`` to
    each output whose index divides it (so the outputs' rates differ)."""

    type_name = "emitter"

    def init(self) -> None:
        ctx = self.ctx
        self.outs = [
            ctx.create_output(f"out{i}") for i in range(ctx.param_int("ports", 1))
        ]
        self.count = 0
        ctx.schedule_every(
            ctx.param_float("interval", 1.0), ctx.param_float("phase", 0.0)
        )

    def work(self) -> None:
        self.count += 1
        now = self.ctx.clock.now()
        for index, out in enumerate(self.outs):
            if self.count % (index + 1) == 0:
                out.write(self.count, now)


class Relay(_Logged):
    """Forwards what its inputs hold: every sample (``mode = all``, one
    write each, so a backlog fans out as a burst) or only the newest of
    each connection (``mode = latest``, which skips)."""

    type_name = "relay"

    def init(self) -> None:
        ctx = self.ctx
        self.out = ctx.create_output("out0")
        self.latest = ctx.param_str("mode", "all") == "latest"
        trigger = ctx.param_int("trigger", 0)
        if trigger:
            ctx.trigger_after_updates(trigger)

    def work(self) -> None:
        now = self.ctx.clock.now()
        for name in sorted(self.ctx.inputs):
            for connection in self.ctx.inputs[name]:
                if self.latest:
                    sample = connection.latest()
                    samples = [sample] if sample is not None else []
                else:
                    samples = connection.pop_all()
                for sample in samples:
                    self.out.write(sample.value, now)


def registry() -> ModuleRegistry:
    reg = ModuleRegistry()
    reg.register(Emitter)
    reg.register(Relay)
    return reg


def random_config(rng: random.Random) -> str:
    """Two or three emitters, then five to nine relays each wired to one
    to three earlier instances, by output or by ``@instance``."""
    sections = []
    outputs = {}  # instance id -> its output names
    for index in range(rng.randint(2, 3)):
        ports = rng.randint(1, 3)
        sections.append(
            f"[emitter]\nid = e{index}\nports = {ports}\n"
            f"interval = {rng.choice([0.5, 1.0, 2.0])}\n"
            f"phase = {rng.choice([0.0, 0.25])}\n"
        )
        outputs[f"e{index}"] = [f"out{i}" for i in range(ports)]
    for index in range(rng.randint(5, 9)):
        lines = [f"[relay]\nid = r{index}", f"mode = {rng.choice(['all', 'latest'])}"]
        if rng.random() < 0.5:
            lines.append(f"trigger = {rng.randint(1, 4)}")
        for slot in range(rng.randint(1, 3)):
            upstream = rng.choice(sorted(outputs))
            if rng.random() < 0.3:
                lines.append(f"input[in{slot}] = @{upstream}")
            else:
                lines.append(
                    f"input[in{slot}] = {upstream}.{rng.choice(outputs[upstream])}"
                )
        sections.append("\n".join(lines) + "\n")
        outputs[f"r{index}"] = ["out0"]
    return "\n".join(sections)


def build_pair(text):
    cores = []
    for build in (FptCore.from_config, ReferenceCore):
        log = []
        core = build(text, registry(), SimClock(), QUEUE_CAPACITY, {"log": log})
        cores.append((core, log))
    return cores


def connection_counters(core):
    return {
        (instance_id, name, index): (
            connection.total_received, connection.total_dropped,
            connection.total_skipped, len(connection),
        )
        for instance_id, ctx in core.dag.contexts.items()
        for name, group in ctx.inputs.items()
        for index, connection in enumerate(group)
    }


def assert_same(pair):
    (core, log), (reference, reference_log) = pair
    assert log == reference_log
    assert connection_counters(core) == connection_counters(reference)
    assert core.scheduler.runs_by_instance == reference.scheduler.runs_by_instance


#: A consumer that is already queued when the next write reaches it (both
#: ports of ``e0`` write in one run, ``r0`` triggers on the first), next
#: to a slow one whose queue overflows before its trigger count is met.
QUEUED_TWICE = (
    "[emitter]\nid = e0\nports = 2\n\n"
    "[relay]\nid = r0\ntrigger = 1\ninput[a] = @e0\n\n"
    "[relay]\nid = r1\ntrigger = 7\ninput[a] = e0.out0\ninput[b] = r0.out0\n"
)

SEEDS = range(25)


def run_pair(text, until=20.0):
    pair = build_pair(text)
    for core, _ in pair:
        core.run_until(until)
    return pair


@pytest.mark.parametrize(
    "text", [QUEUED_TWICE] + [random_config(random.Random(s)) for s in SEEDS],
    ids=["queued-twice"] + [f"seed{s}" for s in SEEDS],
)
def test_runs_and_counters_equal_the_reference(text):
    pair = run_pair(text)
    assert_same(pair)
    assert {reason for _, reason, _ in pair[0][1]} == {"periodic", "inputs"}


def test_the_generated_dags_reach_the_hard_cases():
    received = dropped = skipped = 0
    for seed in SEEDS:
        core, _ = run_pair(random_config(random.Random(seed)))[0]
        for got, lost, passed_over, _ in connection_counters(core).values():
            received += got
            dropped += lost
            skipped += passed_over
    assert received > 5000 and dropped > 100 and skipped > 100


@pytest.mark.parametrize("seed", range(10))
def test_parity_holds_through_every_invalidation_door(seed):
    rng = random.Random(1000 + seed)
    pair = build_pair(random_config(rng))
    live = sorted(pair[0][0].dag.contexts)
    upstream = rng.choice(live)
    retuned = rng.choice([i for i in live if i.startswith("r")])
    trigger = rng.randint(1, 5)
    late = (
        f"[relay]\nid = late\ninput[a] = @{upstream}\n"
        f"trigger = {rng.randint(1, 3)}\n\n"
        "[relay]\nid = later\ninput[a] = late.out0\n"
    )
    doors = [
        lambda core: core.attach(late),
        lambda core: core.scheduler.set_trigger(retuned, trigger),
        lambda core: core.dag.contexts[upstream].outputs["out0"].subscribe(),
        lambda core: core.detach("later"),
        lambda core: core.detach("late"),
        lambda core: core.attach(late),  # the same ids again
    ]
    end = 0.0
    for door in doors:
        end += rng.choice([2.0, 3.5, 5.0])
        for core, _ in pair:
            core.run_until(end)
            door(core)
        assert_same(pair)
    for core, _ in pair:
        core.run_until(end + 6.0)
    assert_same(pair)
    assert pair[0][0].scheduler.runs_by_instance.get("late", 0) > 0
