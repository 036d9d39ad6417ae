"""Every door a compiled trigger plan can go stale through, one test each.

``Output.write`` counts towards its consumers from a plan the scheduler
compiles lazily; the plan must be rebuilt after anything that changes
who consumes the output or at which count they run: ``FptCore.detach``,
``trigger_after_updates`` / ``set_trigger``, a bare
``Output.subscribe()`` / ``unsubscribe()``, and an instance removed
(from inside a ``run()``) or registered again.  Each test makes the
first write (so a plan exists) before opening the door.
``FptCore.attach`` onto a live output, mid-run and tapped by recorder
and observatory, is
``test_write_hooks.py::test_runtime_attached_instance_is_tapped_by_both``.
"""

from repro.core import FptCore, Module, Output, ParamSpec, RunReason, SimClock

from .helpers import build_registry

PIPELINE = "[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n"


def make_core(text: str = PIPELINE) -> FptCore:
    return FptCore.from_config(text, build_registry(), SimClock())


def test_detach_stops_the_queue_and_not_the_producer():
    core = make_core()
    core.run_until(1.0)
    out = core.instance("s").out
    (connection,) = out.subscribers
    sink = core.instance("k")
    core.detach("k")
    core.run_until(4.0)
    assert connection.total_received == 2 and len(sink.seen) == 2
    assert out.total_written == 5 and out.subscribers == []
    assert core.scheduler.runs_by_instance == {"s": 5, "k": 2}


def test_unsubscribed_connection_no_longer_counts():
    core = make_core()
    core.run_until(1.0)
    out = core.instance("s").out
    out.unsubscribe(out.subscribers[0])  # the sink stays registered
    core.run_until(4.0)
    assert out.total_written == 5 and out.subscribers == []
    assert core.scheduler.runs_by_instance == {"s": 5, "k": 2}


def test_trigger_changed_after_the_first_write():
    core = make_core()
    core.run_until(1.0)  # two writes at threshold 1
    core.instance("k").ctx.trigger_after_updates(3)
    core.run_until(7.0)  # six more at threshold 3
    assert core.scheduler.runs_by_instance["k"] == 4
    core.scheduler.set_trigger("k", 1)
    core.run_until(9.0)
    assert core.scheduler.runs_by_instance["k"] == 6


def test_bare_subscribe_after_attach():
    core = make_core(PIPELINE + "trigger = 2\n")
    core.run_until(1.0)  # two writes: one run of the sink
    out = core.instance("s").out
    probe = out.subscribe(capacity=2)
    core.run_until(5.0)  # four more: two runs
    # The ownerless connection is fed and bounded, and counts for nobody.
    assert [sample.value for sample in probe.pop_all()] == [4, 5]
    assert probe.total_received == 4 and probe.total_dropped == 2
    assert core.scheduler.runs_by_instance == {"s": 6, "k": 3}
    # Given to the sink, it counts like any other of its connections.
    out.subscribe().owner_instance = "k"
    core.run_until(7.0)  # two writes, each counted twice
    assert core.scheduler.runs_by_instance == {"s": 8, "k": 5}


def test_instance_registered_again_after_removal():
    core = make_core()
    sink = core.instance("k")
    core.run_until(1.0)
    core.scheduler.remove_instance("k")
    core.run_until(2.0)
    assert len(sink.seen) == 2  # not run while it was away
    core.scheduler.add_instance(sink)  # its connection never left
    core.run_until(4.0)
    assert core.scheduler.runs_by_instance == {"s": 5, "k": 4}
    assert [value for _, value in sink.seen] == [0, 1, 2, 3, 4]


class FirstSeenRemoves(Module):
    """Input-triggered; its first run removes ``victim`` from the scheduler."""

    type_name = "remover"
    params = (ParamSpec("victim", "str", required=True),)

    def init(self) -> None:
        self.victim = self.ctx.param_str("victim")
        self.runs = 0

    def run(self, reason: RunReason) -> None:
        self.runs += 1
        if self.runs == 1:
            self.ctx.service("core")[0].scheduler.remove_instance(self.victim)


def test_instance_removed_from_inside_a_run():
    registry = build_registry()
    registry.register(FirstSeenRemoves)
    holder = []
    text = (
        "[source]\nid = s\n\n"
        "[remover]\nid = self_\nvictim = self_\ninput[a] = s.value\n\n"
        "[remover]\nid = peer\nvictim = k\ninput[a] = s.value\n\n"
        "[sink]\nid = k\ninput[a] = s.value\n"
    )
    core = FptCore.from_config(
        text, registry, SimClock(), services={"core": holder}
    )
    holder.append(core)
    core.run_until(3.0)
    # One write queued all three consumers; ``peer`` ran before ``k`` and
    # took its queued run away, ``self_`` never ran again.
    assert core.scheduler.runs_by_instance == {"s": 4, "self_": 1, "peer": 4}
    assert core.instance("k").seen == []
    assert core.instance("s").out.total_written == 4


def test_an_output_no_scheduler_attached_writes_as_before():
    output = Output(owner_id="a", name="b")
    output.write(0, 0.0)  # no subscribers, no hook: only counted
    connection = output.subscribe(capacity=2)
    connection.owner_instance = "nobody"
    seen = []
    output.on_write = lambda out, sample: seen.append(sample)
    for i in range(1, 4):
        output.write(i, float(i))
    assert output.total_written == 4
    assert [sample.value for sample in seen] == [1, 2, 3]
    assert connection.pop_all() == seen[1:]
    assert connection.total_received == 3 and connection.total_dropped == 1
