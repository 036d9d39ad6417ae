"""The archive a recorder leaves is the one its parent commit left.

PR 22 changed how a row is formatted (timestamp text reused within a
tick, ints and array prefixes without the encoder) and how it reaches
the disk (a 64 KiB buffer, flushed at every bundle and at ``close()``);
none of that may show in the files.  ``golden/`` holds what
:func:`~.parity_scenario.record` wrote at the parent commit: a float32
array, arrays nested in containers, ``np.int64`` / ``np.float64``
scalars, non-finite and odd-typed timestamps, and ``at != t``.
"""

import json
import os

import pytest

from repro.core import Output, Sample
from repro.flightrec import ArchiveWriter, ReplayArchive

from .parity_scenario import record

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def read(directory, name: str) -> bytes:
    with open(os.path.join(str(directory), name), "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    directory = tmp_path_factory.mktemp("parity")
    return directory, record(str(directory))


class TestArchiveEqualsTheParents:
    @pytest.mark.parametrize("name", [
        "samples.jsonl", "incident-0001.json", "incident-0002.json",
        "outputs.json",
    ])
    def test_file_is_byte_identical(self, recorded, name):
        directory, _ = recorded
        assert read(directory, name) == read(GOLDEN, name)

    def test_no_file_more_and_none_less(self, recorded):
        directory, _ = recorded
        assert sorted(os.listdir(str(directory))) == sorted(os.listdir(GOLDEN))

    def test_manifest_is_byte_identical(self, recorded):
        # ``buffered_bytes`` is a ``sys.getsizeof`` estimate and differs
        # between interpreters (the golden file is CPython 3.11's): this
        # interpreter's count goes in its place (``test_write_path``
        # holds that count to a recount), everything else to the bytes.
        directory, recorder = recorded
        golden = json.loads(read(GOLDEN, "manifest.json"))
        golden["stats"]["buffered_bytes"] = recorder.buffered_bytes()
        assert read(directory, "manifest.json").decode() == json.dumps(
            golden, indent=2, sort_keys=True
        )

    def test_the_scenario_covers_what_it_says(self):
        lines = read(GOLDEN, "samples.jsonl").decode().splitlines()
        records = [json.loads(line) for line in lines]
        assert any(r["at"] != r["t"] for r in records)
        assert any(r["at"] == r["t"] for r in records)
        assert any('"t": NaN' in line for line in lines)
        assert any('"t": -Infinity' in line for line in lines)
        assert any('"dtype": "float32"' in line for line in lines)
        assert sum(r["v"] == 7 for r in records) == 2  # np.int64(7) and 7
        assert [line for line in lines if '"t": 3,' in line]  # an int stamp

    def test_golden_archive_replays_through_todays_loader(self):
        archive = ReplayArchive.load(GOLDEN)
        assert len(archive.records) == archive.manifest["records"] == 39


class TestStampTextIsNotSharedAcrossTypes:
    """The writer remembers the last timestamp it formatted; equal
    numbers that read differently must not borrow each other's text."""

    @pytest.mark.parametrize("stamps", [
        (3.0, 3), (3, 3.0), (0.0, -0.0), (-0.0, 0.0), (2.5, 2.5),
        (float("nan"), float("nan")), (float("inf"), float("inf")),
        (True, 1.0), (1.0, True),
    ], ids=repr)
    def test_every_record_is_json_dumps_framing(self, tmp_path, stamps):
        writer = ArchiveWriter(str(tmp_path))
        head = writer.note_output(Output(owner_id="a", name="b"))
        pairs = [(t, at) for t in stamps for at in stamps]
        for t, at in pairs:
            writer.write_sample(head, Sample(t, 1), at)
        writer.close()
        lines = read(tmp_path, "samples.jsonl").decode().splitlines()
        assert lines == [
            json.dumps({"t": t, "at": at, "o": "a.b", "v": 1})
            for t, at in pairs
        ]
