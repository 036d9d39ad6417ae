"""Tests for runtime attach/detach (paper section 2.1 flexibility)."""

import pytest

from repro.core import ConfigError, FptCore, RunReason, SimClock

from .helpers import build_registry


def make_core() -> FptCore:
    return FptCore.from_config(
        "[source]\nid = src\n\n[sink]\nid = snk\ninput[a] = src.value\n",
        build_registry(),
        SimClock(),
    )


class TestAttach:
    def test_attach_new_consumer_of_existing_output(self):
        core = make_core()
        core.run_until(2.0)
        added = core.attach("[sink]\nid = late\ninput[a] = src.value\n")
        assert added == ["late"]
        core.run_until(5.0)
        # The late sink only sees samples produced after it attached.
        late_values = [v for _, v in core.instance("late").seen]
        assert late_values == [3, 4, 5]

    def test_attach_whole_new_chain(self):
        core = make_core()
        core.run_until(1.0)
        added = core.attach(
            "[source]\nid = src2\ninterval = 2.0\n\n"
            "[double]\nid = dbl\ninput[input] = src2.value\n\n"
            "[sink]\nid = snk2\ninput[a] = dbl.value\n"
        )
        assert set(added) == {"src2", "dbl", "snk2"}
        core.run_until(5.0)
        assert [v for _, v in core.instance("snk2").seen] == [0, 2, 4]

    def test_attached_instances_appear_in_introspection(self):
        core = make_core()
        core.attach("[sink]\nid = late\ninput[a] = src.value\n")
        assert "late" in core.instances
        assert any(edge.dst_instance == "late" for edge in core.edges)

    def test_attach_duplicate_id_rejected(self):
        core = make_core()
        with pytest.raises(ConfigError, match="already exists"):
            core.attach("[source]\nid = src\n")

    def test_attach_unknown_upstream_rejected(self):
        core = make_core()
        with pytest.raises(ConfigError, match="unknown instance"):
            core.attach("[sink]\nid = s2\ninput[a] = ghost.value\n")

    def test_attach_cycle_rejected_and_rolled_back(self):
        core = make_core()
        with pytest.raises(ConfigError, match="wiring cycle"):
            core.attach(
                "[double]\nid = a\ninput[input] = b.value\n\n"
                "[double]\nid = b\ninput[input] = a.value\n"
            )
        assert "a" not in core.instances
        assert "b" not in core.instances


def state(core):
    """What a failed attach must leave exactly as it was."""
    value = core.dag.contexts["src"].outputs["value"]
    return (core.instances, sorted(core.dag.contexts), core.edges,
            len(value.subscribers))


class TestFailedAttachChangesNothing:
    @pytest.mark.parametrize("text,match", [
        # A valid sibling beside a cycle: the cycle is found before any
        # instance is initialized.
        ("[sink]\nid = ok\ninput[a] = src.value\n\n"
         "[double]\nid = a\ninput[input] = b.value\n\n"
         "[double]\nid = b\ninput[input] = a.value\n", "wiring cycle"),
        # A bad output name of an existing instance: its outputs are known.
        ("[sink]\nid = ok\ninput[a] = src.value\n\n"
         "[sink]\nid = bad\ninput[a] = src.wrong\n", "'src.wrong' does not exist"),
        # A bad output name of a new instance, known only once it is
        # initialized: the instances initialized before it are undone.
        ("[source]\nid = s2\n\n[sink]\nid = ok\ninput[a] = src.value\n\n"
         "[sink]\nid = bad\ninput[a] = s2.wrong\n", "'s2.wrong' does not exist"),
    ], ids=["cycle", "existing-output", "new-output"])
    def test_failed_attach_leaves_the_dag_as_it_was(self, text, match):
        core = make_core()
        core.run_until(1.0)
        before = state(core)
        with pytest.raises(ConfigError, match=match):
            core.attach(text)
        assert state(core) == before
        core.run_until(3.0)
        assert [v for _, v in core.instance("snk").seen] == [0, 1, 2, 3]

    def test_failed_attach_leaves_no_schedule_behind(self):
        """``s2`` asked to run every second before the attach failed; a
        later sink that takes its id runs on its inputs alone."""
        core = make_core()
        with pytest.raises(ConfigError, match="'s2.wrong' does not exist"):
            core.attach("[source]\nid = s2\n\n[sink]\nid = bad\ninput[a] = s2.wrong\n")
        core.attach("[sink]\nid = s2\ninput[a] = src.value\n")
        core.run_until(3.0)
        assert set(core.instance("s2").run_reasons) == {RunReason.INPUTS}


class TestDetach:
    def test_detach_terminal_sink(self):
        core = make_core()
        core.run_until(1.0)
        seen_before = list(core.instance("snk").seen)
        core.detach("snk")
        assert "snk" not in core.instances
        core.run_until(5.0)  # must not crash on stale wiring
        # The source no longer pays for an unread subscriber.
        assert core.dag.contexts["src"].outputs["value"].subscribers == []
        assert seen_before  # data collected before detach is intact

    def test_detach_producer_with_consumers_rejected(self):
        core = make_core()
        with pytest.raises(ConfigError, match="consume its outputs"):
            core.detach("src")

    def test_detach_then_reattach_same_id(self):
        core = make_core()
        core.detach("snk")
        core.attach("[sink]\nid = snk\ninput[a] = src.value\n")
        core.run_until(2.0)
        assert len(core.instance("snk").seen) == 3

    def test_detach_unknown_instance(self):
        core = make_core()
        with pytest.raises(ConfigError, match="no such instance"):
            core.detach("ghost")

    def test_detach_periodic_source_after_consumers_removed(self):
        core = make_core()
        core.run_until(1.0)
        core.detach("snk")
        core.detach("src")
        core.run_until(10.0)
        assert core.instances == []
        assert core.scheduler._heap == []

    def test_reattached_periodic_source_runs_on_its_own_schedule(self):
        """The detached ``src``'s 1 s schedule goes with it: re-attached
        at 2.5 s it runs at 2.5, 3.5, ... and not also at 3, 4, ..."""
        core = make_core()
        core.run_until(2.5)
        core.detach("snk")
        core.detach("src")
        core.attach("[source]\nid = src\n\n[sink]\nid = snk\ninput[a] = src.value\n")
        core.run_until(6.5)
        assert [t for t, _ in core.instance("snk").seen] == [2.5, 3.5, 4.5, 5.5, 6.5]

    def test_detached_module_is_closed(self):
        core = make_core()
        closed = []
        core.instance("snk").close = lambda: closed.append("snk")
        core.detach("snk")
        assert closed == ["snk"]
