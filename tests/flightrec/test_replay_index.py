"""The archive index against the linear scans it replaced.

``ReplayArchive`` used to answer every per-instance and per-output
question with a pass over all records -- one pass per replay source, so
building a 26-source core read a 62 734-record archive 27 times.  The
scans live on here as the oracle: the index must return the same record
objects in the same order, and ``replay_core`` must read the records a
number of times that does not depend on how many sources it builds.
"""

import pytest

from repro.analysis import Alarm
from repro.flightrec import (
    FlightRecorder,
    ReplayArchive,
    ReplayRecord,
    make_replay_registry,
    replay_core,
    run_replay,
)

from .helpers import ScriptedSource, build_core

SOURCES = 6

#: Six sources, a two-output consumer of all of them, and a sink fed by
#: outputs of two different owners (its expected alarms interleave).
CONFIG = "".join(
    f"[scripted]\nid = src{i}\nnode = slave{i:02d}\n\n" for i in range(SOURCES)
) + "".join(
    f"[threshold_alarm]\nid = thr{i}\ninput[m] = src{i}.value\n"
    "bound = 5.0\nconsecutive = 1\n\n" for i in range(2)
) + (
    "[print]\nid = both\ninput[a] = thr0.alarms\ninput[b] = thr1.alarms\n\n"
    "[print]\nid = rest\n"
    + "".join(f"input[s{i}] = src{i}.value\n" for i in range(2, SOURCES))
)

SCRIPT = {
    f"src{i}": [(7 * i + 3 * t) % 11 for t in range(12)] for i in range(SOURCES)
}


@pytest.fixture
def archive(tmp_path):
    core = build_core(CONFIG, {"script": SCRIPT})
    recorder = FlightRecorder(archive_dir=str(tmp_path))
    core.set_flight_recorder(recorder)
    core.run_until(12.0)
    recorder.note_manifest(config_text=CONFIG)
    recorder.close()
    core.close()
    return ReplayArchive.load(str(tmp_path))


# -- the scans, as they were ---------------------------------------------------

def scan_instances(archive):
    owners = {meta["owner"] for meta in archive.outputs.values()}
    owners.update(r.output.partition(".")[0] for r in archive.records)
    return owners


def scan_instance(archive, instance_id):
    prefix = instance_id + "."
    return [r for r in archive.records if r.output.startswith(prefix)]


def scan_output(archive, full_name):
    return [r for r in archive.records if r.output == full_name]


def assert_same_objects(indexed, scanned):
    assert len(indexed) == len(scanned)
    assert all(a is b for a, b in zip(indexed, scanned))


def assert_index_equals_scans(archive):
    assert archive.instances() == scan_instances(archive)
    for instance_id in scan_instances(archive) | {"nobody"}:
        assert_same_objects(
            archive.records_for_instance(instance_id),
            scan_instance(archive, instance_id),
        )
    names = set(archive.outputs) | {r.output for r in archive.records}
    for full_name in names | {"nobody.nothing"}:
        assert_same_objects(
            archive.samples_for_output(full_name), scan_output(archive, full_name)
        )
    several = sorted(names)[::2]
    assert_same_objects(
        archive.records_for_outputs(several),
        [r for r in archive.records if r.output in several],
    )


class TestIndexEqualsScans:
    def test_every_instance_and_output(self, archive):
        assert len(archive.records) > 6 * 12
        assert_index_equals_scans(archive)

    def test_after_records_append(self, archive):
        archive.instances()  # the index exists before the append
        archive.records.append(
            ReplayRecord(at=12.0, timestamp=12.0, output="src0.value", value=1)
        )
        # An output ``outputs.json`` never heard of: owner from the name.
        archive.records.append(
            ReplayRecord(at=12.0, timestamp=12.0, output="late.extra", value=2)
        )
        assert "late" in archive.instances()
        assert archive.samples_for_output("src0.value")[-1].at == 12.0
        assert_index_equals_scans(archive)

    def test_expected_alarms_interleave_in_file_order(self, archive):
        """A sink fed by two owners: what the recording delivered to it
        is the two alarm streams merged as the file has them."""
        result = run_replay(archive, CONFIG)
        try:
            feeding = {"thr0.alarms", "thr1.alarms"}
            scanned = [
                r.value for r in archive.records
                if r.output in feeding and isinstance(r.value, Alarm)
            ]
            assert {a.node for a in scanned} == {"slave00", "slave01"}
            assert result.expected["both"] == scanned
            assert result.all_match
        finally:
            result.core.close()


class CountingList(list):
    """``archive.records`` that counts how often it is read through."""

    def __init__(self, items):
        super().__init__(items)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestPassesOverTheArchive:
    def passes(self, archive, replace):
        fresh = ReplayArchive(
            archive.directory, CountingList(archive.records),
            archive.outputs, archive.manifest,
        )
        registry = make_replay_registry()
        registry.register(ScriptedSource)  # the sources left unreplaced
        core = replay_core(
            fresh, CONFIG, registry, services={"script": SCRIPT},
            replace=replace,
        )
        sources = [
            i for i in core.instances
            if type(core.instance(i)).type_name == "replay_source"
        ]
        core.close()
        return len(sources), fresh.records.passes

    def test_one_source_costs_what_six_cost(self, archive):
        one = self.passes(archive, ["src0"])
        six = self.passes(archive, None)
        assert (one[0], six[0]) == (1, SOURCES)
        assert one[1] == six[1] == 1
