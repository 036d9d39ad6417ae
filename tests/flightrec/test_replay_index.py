"""The columnar archive against the per-line loader it replaced.

``ReplayArchive`` holds an archive as columns: per instance, flat arrays
of emission times, timestamps, outputs and file offsets, one matrix of
rows for a source of float64 vectors, every other value left in
``samples.jsonl`` until asked for.  ``archive_oracle`` keeps the loader
that decoded every line into a record and indexed those.  On the golden
archive (one value of every type), ``/1`` archives and a recorded
3-slave run the two agree record for record, per instance and per
output; a replay emits the same writes and raises the same alarms
through either; and building a replay core reads no record.
"""

import json
import os
import struct

import numpy as np
import pytest

from repro.analysis import Alarm
from repro.experiments import ScenarioConfig, run_scenario, shared_model
from repro.flightrec import (
    FlightRecorder,
    ReplayArchive,
    decode_value,
    encode_value,
    make_replay_registry,
    replay_core,
    run_replay,
)
from repro.modules.alarms import PrintModule

from .archive_oracle import OracleArchive, oracle_registry
from .helpers import ScriptedSource, build_core
from .test_archive_parity import GOLDEN
from .test_archive_rows import V1_SAMPLES, assert_same_value

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

THREE_SLAVES = ScenarioConfig(
    num_slaves=3, duration_s=300.0, seed=7, fault_name="CPUHog",
    inject_time=60.0,
)


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


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """name -> (archive directory, services a replay of it needs)."""
    model = shared_model(THREE_SLAVES, training_duration_s=120.0)
    three = str(tmp_path_factory.mktemp("three-slaves"))
    recorder = FlightRecorder(archive_dir=three, max_incidents=0)
    run_scenario(THREE_SLAVES, model=model, recorder=recorder)
    recorder.close()
    # The same run as ``/1`` wrote it: every array a decimal list.
    three_v1 = str(tmp_path_factory.mktemp("three-slaves-v1"))
    with open(os.path.join(three, "samples.jsonl"), encoding="utf-8") as src, \
            open(os.path.join(three_v1, "samples.jsonl"), "w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            record["v"] = encode_value(decode_value(record["v"]))
            dst.write(json.dumps(record) + "\n")
    for name in ("outputs.json", "manifest.json"):
        with open(os.path.join(three, name), encoding="utf-8") as fh:
            text = fh.read()
        with open(os.path.join(three_v1, name), "w", encoding="utf-8") as fh:
            fh.write(text.replace("asdf-flight-archive/2", "asdf-flight-archive/1"))
    mixed = str(tmp_path_factory.mktemp("v1-mixed"))
    with open(os.path.join(mixed, "samples.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(V1_SAMPLES)
    services = {"bb_model": model}
    return {
        "golden": (GOLDEN, {"script": {}}),
        "three-slaves": (three, services),
        "three-slaves-v1": (three_v1, services),
        "v1-mixed": (mixed, {}),
    }


def same_float(left, right) -> bool:
    """Both Python floats with the same bits (NaN and -0.0 included)."""
    return (type(left) is type(right) is float
            and struct.pack("<d", left) == struct.pack("<d", right))


def assert_same_records(columns, oracle) -> None:
    assert len(columns) == len(oracle)
    for new, old in zip(columns, oracle):
        assert same_float(new.at, old.at) and same_float(new.timestamp, old.timestamp)
        assert new.output == old.output
        assert_same_value(new.value, old.value)


# -- what the old index answered -----------------------------------------------

def assert_index_equals_scans(archive, oracle):
    assert archive.instances() == oracle.instances()
    for instance_id in oracle.instances() | {"nobody"}:
        assert archive.outputs_of(instance_id) == oracle.outputs_of(instance_id)
        assert_same_records(
            archive.records_for_instance(instance_id),
            oracle.records_for_instance(instance_id),
        )
    names = set(oracle.outputs) | {r.output for r in oracle.records}
    for full_name in names | {"nobody.nothing"}:
        assert_same_records(
            [r for r in archive.records if r.output == full_name],
            oracle.samples_for_output(full_name),
        )
    several = sorted(names)[::2]
    assert_same_records(
        [r for r in archive.records if r.output in several],
        oracle.records_for_outputs(several),
    )
    assert same_float(archive.end_time(), oracle.end_time())


class TestIndexEqualsScans:
    def test_every_instance_and_output(self, archive, archives):
        assert len(archive.records) > 6 * 12
        assert_index_equals_scans(archive, OracleArchive(archive.directory))
        for directory, _ in archives.values():
            assert_index_equals_scans(
                ReplayArchive.load(directory), OracleArchive(directory)
            )

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


class CountingRecords:
    """``archive.records`` that counts how often it is read through."""

    def __init__(self, records):
        self.records = records
        self.passes = 0

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        self.passes += 1
        return iter(self.records)

    def __getitem__(self, index):
        self.passes += 1
        return self.records[index]


class TestPassesOverTheArchive:
    def test_one_source_costs_what_six_cost(self, archive):
        """The columns are the index: building and running a replay core
        reads no record, for one replayed source as for six."""
        counted = CountingRecords(archive.records)
        archive.records = counted
        registry = make_replay_registry()
        registry.register(ScriptedSource)  # the sources left unreplaced
        built = []
        for replace in (["src0"], None):
            core = replay_core(
                archive, CONFIG, registry, services={"script": SCRIPT},
                replace=replace,
            )
            core.run_until(12.0)
            built.append(sum(
                type(core.instance(i)).type_name == "replay_source"
                for i in core.instances
            ))
            core.close()
        assert built == [1, SOURCES]
        assert counted.passes == 0


# -- the oracle, record for record ---------------------------------------------

NAMES = ["golden", "three-slaves", "three-slaves-v1", "v1-mixed"]


class TestColumnsEqualTheOracle:
    @pytest.mark.parametrize("name", NAMES)
    def test_records_agree_in_file_order(self, archives, name):
        directory, _ = archives[name]
        archive, oracle = ReplayArchive.load(directory), OracleArchive(directory)
        assert_same_records(list(archive.records), oracle.records)
        assert_same_records([archive.records[i] for i in (0, -2, -1)],
                            [oracle.records[i] for i in (0, -2, -1)])

    @pytest.mark.parametrize("name", ["three-slaves", "three-slaves-v1"])
    def test_vector_sources_are_one_matrix_each(self, archives, name):
        archive = ReplayArchive.load(archives[name][0])
        shapes = {
            owner: stream.rows.shape
            for owner, stream in archive._streams.items()
            if stream.rows is not None
        }
        nodes = THREE_SLAVES.num_slaves
        assert set(shapes) == {"sadc", "hl"}
        assert shapes["sadc"][1] == 64 and shapes["sadc"][0] % nodes == 0
        for owner, (count, _) in shapes.items():
            assert count == len(archive.records_for_instance(owner))
        assert not archive._streams["sadc"].rows.flags.writeable

    def test_a_source_of_mixed_values_keeps_objects(self, archives):
        archive = ReplayArchive.load(GOLDEN)
        assert archive._streams["mix"].rows is None
        assert archive._streams["src"].rows is None  # ints, not vectors

    @pytest.mark.parametrize("name", ["golden", "three-slaves", "three-slaves-v1"])
    def test_a_replay_emits_what_the_oracle_emits(self, archives, name):
        """Same writes in the same order: Python float timestamps with
        the same bits, float64 C-contiguous rows of the same shape and
        value, and equal alarms at every sink."""
        directory, services = archives[name]
        emitted, alarms = [], []
        for archive, registry in (
            (ReplayArchive.load(directory), None),
            (OracleArchive(directory), oracle_registry()),
        ):
            config = archive.manifest["config_text"]
            writes = []
            core = replay_core(archive, config, registry, services=dict(services))
            for instance_id in core.instances:
                if type(core.instance(instance_id)).type_name != "replay_source":
                    continue
                for output in core.dag.contexts[instance_id].outputs.values():
                    output.add_write_hook(
                        lambda out, sample, writes=writes: writes.append(
                            (out.full_name, sample.timestamp, sample.value))
                    )
            core.run_until(archive.end_time() + 1.0)
            emitted.append(writes)
            alarms.append({
                i: core.instance(i).alarms for i in core.instances
                if isinstance(core.instance(i), PrintModule)
            })
            core.close()
        new, old = emitted
        assert len(new) == len(old) > 0
        for (name_a, t_a, v_a), (name_b, t_b, v_b) in zip(new, old):
            assert name_a == name_b and same_float(t_a, t_b)
            assert_same_value(v_a, v_b)
            if isinstance(v_a, np.ndarray) and v_a.dtype == np.float64:
                assert v_a.flags.c_contiguous
        assert alarms[0] == alarms[1]
        assert any(alarms[0].values())
