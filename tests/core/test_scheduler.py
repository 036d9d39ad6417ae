"""Tests for the scheduler: periodic events, input triggers, determinism."""

import pytest

from repro.core import FptCore, RunReason, SchedulerError, SimClock

from .helpers import build_registry


def make_core(text: str) -> FptCore:
    return FptCore.from_config(text, build_registry(), SimClock())


class TestPeriodicScheduling:
    def test_source_fires_once_per_interval(self):
        core = make_core("[source]\nid = s\ninterval = 1.0\n\n[sink]\nid = k\ninput[a] = s.value\n")
        core.run_until(5.0)
        sink = core.instance("k")
        assert [v for _, v in sink.seen] == [0, 1, 2, 3, 4, 5]

    def test_interval_other_than_one(self):
        core = make_core("[source]\nid = s\ninterval = 2.0\n\n[sink]\nid = k\ninput[a] = s.value\n")
        core.run_until(6.0)
        assert [t for t, _ in core.instance("k").seen] == [0.0, 2.0, 4.0, 6.0]

    def test_phase_offsets_first_firing(self):
        core = make_core("[source]\nid = s\ninterval = 2.0\nphase = 0.5\n\n[sink]\nid = k\ninput[a] = s.value\n")
        core.run_until(5.0)
        assert [t for t, _ in core.instance("k").seen] == [0.5, 2.5, 4.5]

    def test_two_sources_interleave_in_time_order(self):
        core = make_core(
            "[source]\nid = a\ninterval = 2.0\n\n"
            "[source]\nid = b\ninterval = 3.0\n\n"
            "[sink]\nid = k\ninput[x] = a.value\ninput[y] = b.value\ntrigger = 1\n"
        )
        core.run_until(6.0)
        times = [t for t, _ in core.instance("k").seen]
        assert times == sorted(times)

    def test_run_until_in_the_past_raises(self):
        core = make_core("[source]\nid = s\n")
        core.run_until(3.0)
        with pytest.raises(SchedulerError, match="in the past"):
            core.run_until(2.0)

    def test_run_for_advances_relative(self):
        core = make_core("[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n")
        core.run_for(2.0)
        core.run_for(2.0)
        assert core.clock.now() == 4.0
        assert len(core.instance("k").seen) == 5

    def test_clock_rests_at_end_time_even_without_events(self):
        core = make_core("[source]\nid = s\ninterval = 100.0\n")
        core.run_until(5.0)
        assert core.clock.now() == 5.0


class TestInputTriggering:
    def test_downstream_runs_in_same_timestamp(self):
        core = make_core(
            "[source]\nid = s\n\n[double]\nid = d\ninput[input] = s.value\n\n"
            "[sink]\nid = k\ninput[a] = d.value\n"
        )
        core.run_until(2.0)
        assert core.instance("k").seen == [(0.0, 0), (1.0, 2), (2.0, 4)]

    def test_default_trigger_waits_for_all_connections(self):
        core = make_core(
            "[source]\nid = a\ninterval = 1.0\n\n"
            "[source]\nid = b\ninterval = 2.0\n\n"
            "[sink]\nid = k\ninput[x] = a.value\ninput[y] = b.value\n"
        )
        core.run_until(4.0)
        sink = core.instance("k")
        # The default trigger is count-based: the sink runs after every
        # 2 input updates.  a fires 5 times + b fires 3 times = 8 updates
        # -> 4 triggered runs (not one per source tick).
        assert len(sink.run_reasons) == 4
        assert all(reason is RunReason.INPUTS for reason in sink.run_reasons)

    def test_custom_trigger_fires_on_every_update(self):
        core = make_core(
            "[source]\nid = a\n\n[source]\nid = b\ninterval = 2.0\n\n"
            "[sink]\nid = k\ninput[x] = a.value\ninput[y] = b.value\ntrigger = 1\n"
        )
        core.run_until(4.0)
        # a fires 5 times, b fires 3 times -> 8 triggered runs.
        assert len(core.instance("k").run_reasons) == 8

    def test_manual_run_propagates(self):
        core = make_core(
            "[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n"
        )
        core.run_instance("s")
        assert core.instance("k").seen == [(0.0, 0)]

    def test_manual_run_unknown_instance(self):
        core = make_core("[source]\nid = s\n")
        with pytest.raises(SchedulerError, match="no such instance"):
            core.run_instance("ghost")


class TestStopAndErrors:
    def test_stop_exits_run_loop_early(self):
        core = make_core("[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n")

        original_run = core.instance("k").run

        def stopping_run(reason):
            original_run(reason)
            if len(core.instance("k").seen) >= 3:
                core.stop()

        core.instance("k").run = stopping_run
        core.run_until(100.0)
        assert len(core.instance("k").seen) == 3

    def test_module_exception_propagates_by_default(self):
        core = make_core("[source]\nid = s\n")

        def broken_run(reason):
            raise ValueError("boom")

        core.instance("s").run = broken_run
        with pytest.raises(ValueError, match="boom"):
            core.run_until(1.0)

    def test_error_hook_can_suppress(self):
        core = make_core("[source]\nid = s\n")
        failures = []

        def broken_run(reason):
            raise ValueError("boom")

        core.instance("s").run = broken_run
        core.scheduler.on_error = lambda inst, exc: failures.append(inst) or True
        core.run_until(2.0)
        assert failures == ["s", "s", "s"]

    def test_total_runs_counted(self):
        core = make_core("[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n")
        core.run_until(3.0)
        assert core.scheduler.total_runs == 8  # 4 source + 4 sink

    def test_error_hook_returning_false_re_raises(self):
        core = make_core("[source]\nid = s\n")
        failures = []

        def broken_run(reason):
            raise ValueError("boom")

        core.instance("s").run = broken_run
        core.scheduler.on_error = lambda inst, exc: bool(failures.append(inst))
        with pytest.raises(ValueError, match="boom"):
            core.run_until(2.0)
        # The hook saw the failure exactly once before the re-raise.
        assert failures == ["s"]

    def test_next_deadline(self):
        core = make_core("[source]\nid = s\ninterval = 2.0\nphase = 1.0\n")
        assert core.scheduler.next_deadline() == 1.0


class TestReasonSplitCounters:
    def test_runs_split_by_reason(self):
        core = make_core(
            "[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n"
        )
        core.run_until(3.0)
        core.run_instance("s")
        by_reason = core.scheduler.runs_by_reason
        assert by_reason[RunReason.PERIODIC] == 4
        # 4 triggered by periodic writes + 1 by the manual write.
        assert by_reason[RunReason.INPUTS] == 5
        assert by_reason[RunReason.MANUAL] == 1

    def test_total_runs_is_derived_from_the_split(self):
        core = make_core("[source]\nid = s\n")
        core.run_until(2.0)
        scheduler = core.scheduler
        assert scheduler.total_runs == sum(scheduler.runs_by_reason.values())

    def test_runs_by_instance(self):
        core = make_core(
            "[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n"
        )
        core.run_until(3.0)
        assert core.scheduler.runs_by_instance == {"s": 4, "k": 4}


class TestRemoveInstance:
    def test_stale_heap_entry_is_skipped(self):
        core = make_core(
            "[source]\nid = s\n\n[source]\nid = t\ninterval = 2.0\n"
        )
        core.run_until(1.0)
        # 's' still has a pending heap entry for t=2.0 when detached.
        core.scheduler.remove_instance("s")
        core.run_until(5.0)  # must not KeyError on the stale entry
        assert core.scheduler.runs_by_instance["s"] == 2  # t=0 and t=1 only
        assert core.scheduler.runs_by_instance["t"] == 3  # t=0, 2, 4

    def test_pending_input_triggered_run_is_dropped(self):
        core = make_core(
            "[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n"
        )
        source, sink = core.instance("s"), core.instance("k")
        write = source.run

        def write_then_remove(reason):
            write(reason)  # queues k's input-triggered run ...
            core.scheduler.remove_instance("k")  # ... which must never fire

        source.run = write_then_remove
        core.run_until(0.0)
        assert sink.run_reasons == []
        assert core.scheduler.runs_by_instance == {"s": 1}
        source.run = write
        core.run_until(2.0)  # nor do later writes bring it back
        assert sink.run_reasons == []
        assert core.scheduler.runs_by_instance == {"s": 3}

    def test_remove_unknown_instance_raises(self):
        core = make_core("[source]\nid = s\n")
        with pytest.raises(SchedulerError, match="no such instance"):
            core.scheduler.remove_instance("ghost")

    def test_removed_instance_no_longer_triggered_by_writes(self):
        core = make_core(
            "[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n"
        )
        core.run_until(1.0)
        core.scheduler.remove_instance("k")
        core.run_until(4.0)
        assert core.scheduler.runs_by_instance["k"] == 2  # before removal


class TestAttachOutput:
    def test_existing_hook_is_chained_not_overwritten(self):
        core = make_core("[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n")
        output = core.instance("s").ctx.outputs["value"]
        seen = []
        hook = output.on_write = lambda out, sample: seen.append(sample.value)
        core.scheduler.attach_output(output)
        assert output.on_write is hook
        core.run_until(2.0)
        # The foreign hook fired on every write...
        assert seen == [0, 1, 2]
        # ...and the scheduler's trigger bookkeeping still worked.
        assert len(core.instance("k").seen) == 3

    def test_attaching_twice_does_not_double_trigger(self):
        core = make_core("[source]\nid = s\n\n[sink]\nid = k\ninput[a] = s.value\n")
        output = core.instance("s").ctx.outputs["value"]
        # FptCore already attached during construction; attach again.
        core.scheduler.attach_output(output)
        core.scheduler.attach_output(output)
        core.run_until(2.0)
        assert len(core.instance("k").seen) == 3


class TestDeterminism:
    def test_same_config_same_results(self):
        def run():
            core = make_core(
                "[source]\nid = a\ninterval = 1.0\n\n"
                "[double]\nid = d\ninput[input] = a.value\n\n"
                "[sink]\nid = k\ninput[x] = d.value\n"
            )
            core.run_until(20.0)
            return core.instance("k").seen

        assert run() == run()
