"""Scheduler hot-path regressions: resolved thresholds, attachment,
and the periodic re-arm race.

``Output.write`` is the hottest call site in the core; these tests pin
down that (a) the trigger threshold is resolved when the DAG changes
instead of recomputed via ``connection_count()`` on every write, (b) it
is resolved again after every registration change, (c) every consumer is
counted exactly once per write whatever is done to the output's
attachment or its ``on_write``, and (d) an instance may remove itself
from its own periodic ``run()`` without resurrecting via the re-arm.
"""

import pytest

from repro.core import FptCore, RunReason, Scheduler, SchedulerError, SimClock

from .helpers import build_registry


def make_core(text: str) -> FptCore:
    return FptCore.from_config(text, build_registry(), SimClock())


class TestThresholdCache:
    def test_connection_count_not_called_per_write(self):
        # `double` declares no explicit trigger, so its threshold comes
        # from ctx.connection_count() -- which must be consulted once,
        # not on every one of the source's writes.
        core = make_core(
            "[source]\nid = s\ninterval = 1.0\n\n"
            "[double]\nid = d\ninput[input] = s.value\n\n"
            "[sink]\nid = k\ninput[a] = d.value\n"
        )
        ctx = core.instance("d").ctx
        calls = []
        original = ctx.connection_count

        def counting():
            calls.append(1)
            return original()

        ctx.connection_count = counting
        core.run_until(50.0)
        assert len(calls) <= 1
        # Behavior unchanged: every tick still propagated to the sink.
        assert [v for _, v in core.instance("k").seen] == [
            2 * i for i in range(51)
        ]

    def test_set_trigger_invalidates_cache(self):
        core = make_core(
            "[source]\nid = s\ninterval = 1.0\n\n"
            "[sink]\nid = k\ninput[a] = s.value\n"
        )
        core.run_until(2.0)  # 3 writes at threshold 1 -> 3 triggered runs
        scheduler = core.scheduler
        assert scheduler.runs_by_instance["k"] == 3
        scheduler.set_trigger("k", 3)
        core.run_until(8.0)  # 6 more writes at threshold 3 -> 2 runs
        assert scheduler.runs_by_instance["k"] == 5

    def test_remove_instance_invalidates_cache(self):
        core = make_core(
            "[source]\nid = s\ninterval = 1.0\n\n"
            "[sink]\nid = k\ninput[a] = s.value\n"
        )
        core.run_until(1.0)
        core.scheduler.remove_instance("k")
        # Further writes to the removed consumer must not run it; they
        # still reach its connection, which only ``detach`` unsubscribes.
        core.run_until(3.0)
        assert core.scheduler.runs_by_instance["k"] == 2
        assert len(core.instance("k").run_reasons) == 2
        (connection,) = core.instance("s").out.subscribers
        assert connection.total_received == 4


class TestAttachOutputIdempotence:
    def test_double_attach_does_not_double_count(self):
        core = make_core(
            "[source]\nid = s\ninterval = 1.0\n\n"
            "[sink]\nid = k\ninput[a] = s.value\ntrigger = 2\n"
        )
        # Re-attaching the already-wired output (e.g. a probe detaching
        # and the core re-installing hooks) must be a no-op.
        core.scheduler.attach_output(core.instance("s").out)
        core.run_until(4.0)
        # 5 writes at threshold 2 -> 2 triggered runs; a stacked second
        # hook would count every write twice and yield 5 runs.
        assert core.scheduler.runs_by_instance.get("k", 0) == 2

    def test_foreign_hook_chained_once_and_preserved(self):
        core = make_core(
            "[source]\nid = s\ninterval = 1.0\n\n"
            "[sink]\nid = k\ninput[a] = s.value\ntrigger = 2\n"
        )
        out = core.instance("s").out
        seen = []
        # A foreign probe takes ``on_write`` wholesale.  Trigger counting
        # is not on it, so the consumers keep running with nothing
        # re-attached.
        spy = out.on_write = lambda output, sample: seen.append(sample.value)
        core.run_until(1.0)
        assert core.scheduler.runs_by_instance == {"s": 2, "k": 1}
        core.scheduler.attach_output(out)  # a no-op, before or after
        assert out.on_write is spy
        core.run_until(3.0)
        assert seen == [0, 1, 2, 3]
        assert core.scheduler.runs_by_instance == {"s": 4, "k": 2}


class _SelfRemovingModule:
    """Minimal periodic instance that detaches itself mid-run."""

    def __init__(self, instance_id: str, scheduler: Scheduler) -> None:
        self.instance_id = instance_id
        self.scheduler = scheduler
        self.runs = 0

    def run(self, reason: RunReason) -> None:
        self.runs += 1
        self.scheduler.remove_instance(self.instance_id)


class TestPeriodicRearmRace:
    def test_self_removal_cancels_rearm(self):
        scheduler = Scheduler(SimClock())
        module = _SelfRemovingModule("s", scheduler)
        scheduler.add_instance(module)
        scheduler.schedule_periodic("s", 1.0, 0.0)
        # Pre-fix this raised KeyError on the dropped interval when
        # run_until re-armed the just-removed instance.
        scheduler.run_until(5.0)
        assert module.runs == 1
        assert scheduler.next_deadline() is None

    def test_peer_removal_mid_run_stops_future_firings(self):
        scheduler = Scheduler(SimClock())

        class Remover:
            instance_id = "remover"
            done = False

            def run(self, reason):
                if not self.done:
                    scheduler.remove_instance("victim")
                    self.done = True

        victim = _SelfRemovingModule("victim", scheduler)
        fired = []
        victim.run = lambda reason: fired.append(scheduler.clock.now())
        scheduler.add_instance(Remover())
        scheduler.add_instance(victim)
        scheduler.schedule_periodic("remover", 1.0, 0.0)
        scheduler.schedule_periodic("victim", 1.0, 0.5)
        scheduler.run_until(5.0)
        assert fired == []  # first due at 0.5, removed at 0.0
        with pytest.raises(SchedulerError, match="no such instance"):
            scheduler.remove_instance("victim")
