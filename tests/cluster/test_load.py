"""The synthetic wall-clock load the test-side node daemons are built on."""

import pytest

from repro.cluster.load import LOAD_FAULTS

from .helpers import SyntheticNodeLoad


class TestBaseline:
    def test_first_advance_primes_only(self):
        load = SyntheticNodeLoad("n1", seed=7)
        load.advance_to(100.0)
        assert load.procfs.cpu.user == 0.0

    def test_counters_accrue_monotonically(self):
        load = SyntheticNodeLoad("n1", seed=7)
        load.advance_to(100.0)
        load.advance_to(101.0)
        first = (load.procfs.cpu.user, load.procfs.disk.sectors_written)
        load.advance_to(102.0)
        assert load.procfs.cpu.user > first[0]
        assert load.procfs.disk.sectors_written > first[1]

    def test_non_advancing_clock_is_ignored(self):
        load = SyntheticNodeLoad("n1", seed=7)
        load.advance_to(100.0)
        load.advance_to(101.0)
        user = load.procfs.cpu.user
        load.advance_to(100.5)  # clock went backwards: no accrual
        assert load.procfs.cpu.user == user

    def test_seed_fallback_is_deterministic(self):
        a = SyntheticNodeLoad("node-01")
        b = SyntheticNodeLoad("node-01")
        for load in (a, b):
            load.advance_to(0.0)
            load.advance_to(10.0)
        assert a.procfs.cpu.user == b.procfs.cpu.user


def busy_fraction(load, start, end):
    """Run [start, end] and return the busy share of CPU time."""
    load.advance_to(start)
    before_busy = load.procfs.cpu.user + load.procfs.cpu.system
    before_idle = load.procfs.cpu.idle
    load.advance_to(end)
    busy = load.procfs.cpu.user + load.procfs.cpu.system - before_busy
    idle = load.procfs.cpu.idle - before_idle
    return busy / (busy + idle)


class TestFaults:
    def test_cpuhog_raises_busy_fraction(self):
        quiet = SyntheticNodeLoad("n1", seed=3)
        loud = SyntheticNodeLoad("n1", seed=3)
        loud.inject("cpuhog", intensity=1.0)
        assert busy_fraction(loud, 0.0, 10.0) > \
            busy_fraction(quiet, 0.0, 10.0) + 0.5

    def test_diskhog_raises_sector_rate(self):
        quiet = SyntheticNodeLoad("n1", seed=3)
        loud = SyntheticNodeLoad("n1", seed=3)
        loud.inject("diskhog", intensity=1.0)
        for load in (quiet, loud):
            load.advance_to(0.0)
            load.advance_to(10.0)
        assert loud.procfs.disk.sectors_written > \
            quiet.procfs.disk.sectors_written * 10

    def test_clear_restores_baseline(self):
        load = SyntheticNodeLoad("n1", seed=3)
        load.inject("cpuhog")
        load.clear()
        assert load.active_fault is None
        assert busy_fraction(load, 0.0, 10.0) < 0.3

    def test_unknown_fault_rejected(self):
        load = SyntheticNodeLoad("n1")
        with pytest.raises(ValueError, match="unknown load fault"):
            load.inject("packetloss")

    def test_intensity_clamped(self):
        load = SyntheticNodeLoad("n1")
        load.inject("cpuhog", intensity=7.5)
        assert load.intensity == 1.0

    def test_catalog_names(self):
        assert LOAD_FAULTS == ("cpuhog", "diskhog")
