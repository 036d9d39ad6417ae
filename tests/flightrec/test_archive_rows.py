"""The ``asdf-flight-archive/2`` row codec, and reading what ``/1`` wrote.

An archived array travels as its bytes, so the round trip through
``ArchiveWriter`` -> ``samples.jsonl`` -> ``ReplayArchive.load`` has to be
bit-exact where decimal JSON was only value-exact, and archives recorded
before the change (decimal ``data`` lists) have to keep loading.
"""

import json
import struct

import numpy as np
import pytest

from repro.analysis.metrics import Alarm, WindowDecision
from repro.core import Output, Sample
from repro.flightrec import (
    ArchiveWriter,
    FlightRecorder,
    ReplayArchive,
    decode_value,
    encode_value,
)
from repro.flightrec.codec import array_row_json

from .helpers import ALARM_PIPELINE_CONFIG, ALARM_SCRIPT, build_core


def archive_roundtrip(tmp_path, values):
    """Write ``values`` through an ``ArchiveWriter``; load them back."""
    writer = ArchiveWriter(str(tmp_path))
    output = Output(owner_id="src", name="value")
    head = writer.note_output(output)
    for index, value in enumerate(values):
        writer.write_sample(head, Sample(float(index), value), float(index))
    writer.close()
    archive = ReplayArchive.load(str(tmp_path))
    assert [r.output for r in archive.records] == ["src.value"] * len(values)
    return [r.value for r in archive.records]


def nan_with_payload(payload: int) -> float:
    """A quiet NaN carrying ``payload`` in its mantissa."""
    (value,) = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))
    return value


def assert_same_array(decoded, original) -> None:
    """Same shape, same little-endian bits; a fresh array of its own."""
    assert isinstance(decoded, np.ndarray)
    little = original.dtype.newbyteorder("<")
    assert decoded.dtype == little
    assert decoded.shape == original.shape
    assert decoded.tobytes() == original.astype(little).tobytes()
    assert decoded.base is None and decoded.flags.owndata
    assert decoded.flags.writeable and decoded.flags.c_contiguous


BIT_EXACT_ARRAYS = {
    "nan-payload": np.array([nan_with_payload(0xBEEF), np.nan, 1.0]),
    "negative-zero": np.array([-0.0, 0.0]),
    "infinities": np.array([np.inf, -np.inf]),
    "denormals": np.array([5e-324, -2.5e-310, np.finfo(np.float64).tiny / 4]),
    "empty": np.array([], dtype=np.float64),
    "empty-2d": np.zeros((0, 3), dtype=np.float32),
    "zero-d": np.array(2.5),
    "two-d": np.arange(12.0).reshape(3, 4) / 7.0,
    "big-endian": np.array([1.5, -2.25, 1e300], dtype=">f8"),
    "non-contiguous": np.arange(20.0).reshape(4, 5)[::2, 1::2],
    "fortran-order": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    "int64": np.array([-2**63, 2**63 - 1, 0], dtype=np.int64),
    "uint8": np.arange(256, dtype=np.uint8),
    "bool": np.array([True, False, True]),
    "float32": np.array([0.1, np.nan, -0.0], dtype=np.float32),
    "sadc-row": np.random.default_rng(7).random(64),
}


class TestBitExactRoundTrip:
    @pytest.mark.parametrize("name", sorted(BIT_EXACT_ARRAYS))
    def test_array_survives_the_archive_bit_for_bit(self, tmp_path, name):
        original = BIT_EXACT_ARRAYS[name]
        (decoded,) = archive_roundtrip(tmp_path, [original])
        assert_same_array(decoded, original)
        decoded[...] = 0  # writable for real, not just flagged

    def test_decoded_arrays_share_one_dtype_object(self, tmp_path):
        # A dtype built per record stays alive with its array: 240 B a
        # record, +7 MB peak RSS on a 25-slave archive.
        big = BIT_EXACT_ARRAYS["big-endian"]
        rows = archive_roundtrip(tmp_path, [np.ones(3), np.zeros(3), big, big])
        assert rows[0].dtype is rows[1].dtype is np.dtype("float64")
        assert rows[2].dtype is rows[3].dtype

    def test_arrays_nested_in_containers(self, tmp_path):
        vector = BIT_EXACT_ARRAYS["nan-payload"]
        matrix = BIT_EXACT_ARRAYS["two-d"]
        value = {
            "deviations": vector,
            "pair": (matrix, [BIT_EXACT_ARRAYS["bool"], 3]),
            "nodes": ["a", "b"],
        }
        (decoded,) = archive_roundtrip(tmp_path, [value])
        assert list(decoded) == ["deviations", "pair", "nodes"]
        assert_same_array(decoded["deviations"], vector)
        assert isinstance(decoded["pair"], tuple)
        assert_same_array(decoded["pair"][0], matrix)
        assert_same_array(decoded["pair"][1][0], BIT_EXACT_ARRAYS["bool"])
        assert decoded["pair"][1][1] == 3
        assert decoded["nodes"] == ["a", "b"]

    @pytest.mark.parametrize("array", [
        np.array(["a", "bc"]),
        np.array([1, "x", None], dtype=object),
    ], ids=["string", "object"])
    def test_non_numeric_arrays_keep_the_list_form(self, tmp_path, array):
        assert array_row_json(array) is None
        encoded = encode_value(array, binary=True)
        assert "b64" not in encoded and encoded["data"] == array.tolist()
        (decoded,) = archive_roundtrip(tmp_path, [array])
        assert decoded.dtype == array.dtype
        assert decoded.tolist() == array.tolist()

    @pytest.mark.parametrize("name", sorted(BIT_EXACT_ARRAYS))
    def test_row_text_is_the_encoders_text(self, name):
        # The writer's direct rendering of a top-level array and the
        # dict form used for nested ones are one format, not two.
        array = BIT_EXACT_ARRAYS[name]
        assert array_row_json(array) == json.dumps(
            encode_value(array, binary=True)
        )

    def test_bundles_keep_decimal_lists(self):
        encoded = encode_value({"vec": np.array([0.5, 1.5])})
        assert encoded["items"][0][1] == {
            "__kind__": "ndarray", "dtype": "float64", "data": [0.5, 1.5],
        }

    def test_corrupt_byte_count_is_rejected(self):
        encoded = encode_value(np.arange(4.0), binary=True)
        encoded["shape"] = [5]
        with pytest.raises(ValueError):
            decode_value(encoded)


#: One record of every ``__kind__`` exactly as the ``/1`` writer
#: (``json.dumps`` of the decimal ``encode_value``) put it on disk.
V1_SAMPLES = """\
{"t": 0.0, "at": 0.0, "o": "src.value", "v": {"__kind__": "ndarray", "dtype": "float64", "data": [0.1, -0.0, 1e+300]}}
{"t": 1.0, "at": 1.0, "o": "src.value", "v": {"__kind__": "ndarray", "dtype": "int64", "data": [[1, 2], [3, 4]]}}
{"t": 2.0, "at": 2.5, "o": "src.value", "v": {"__kind__": "alarm", "time": 2.0, "node": "slave01", "source": "rule", "detail": "d", "via": ["thr.alarms"]}}
{"t": 3.0, "at": 3.0, "o": "src.value", "v": [{"__kind__": "decision", "node": "n", "window_start": 0.0, "window_end": 60.0, "alarmed": true}]}
{"t": 4.0, "at": 4.0, "o": "src.value", "v": {"__kind__": "tuple", "items": [1, 2.5, "x", null]}}
{"t": 5.0, "at": 5.0, "o": "src.value", "v": {"__kind__": "dict", "items": [["nodes", ["a", "b"]], ["deviations", {"__kind__": "ndarray", "dtype": "float64", "data": [0.5, 2.0]}]]}}
{"t": 6.0, "at": 6.0, "o": "src.value", "v": {"__kind__": "repr", "repr": "<object>"}}
{"t": 7.0, "at": 7.0, "o": "src.value", "v": 7}
"""

V1_VALUES = [
    np.array([0.1, -0.0, 1e300]),
    np.array([[1, 2], [3, 4]], dtype=np.int64),
    Alarm(time=2.0, node="slave01", source="rule", detail="d",
          via=("thr.alarms",)),
    [WindowDecision(node="n", window_start=0.0, window_end=60.0,
                    alarmed=True)],
    (1, 2.5, "x", None),
    {"nodes": ["a", "b"], "deviations": np.array([0.5, 2.0])},
    "<object>",
    7,
]


def assert_same_value(left, right) -> None:
    assert type(left) is type(right)
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype and left.shape == right.shape
        assert left.tobytes() == right.tobytes()
    elif isinstance(left, dict):
        assert list(left) == list(right)
        for key in left:
            assert_same_value(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_same_value(a, b)
    else:
        assert left == right


class TestOldArchives:
    def write_v1(self, directory, manifest):
        directory.mkdir()
        (directory / "samples.jsonl").write_text(V1_SAMPLES)
        if manifest is not None:
            (directory / "manifest.json").write_text(json.dumps(manifest))

    @pytest.mark.parametrize("manifest", [
        {"format": "asdf-flight-archive/1", "records": 8},
        {"records": 8},
        None,
    ], ids=["tagged-1", "untagged", "no-manifest"])
    def test_v1_archive_loads_equal_to_the_new_writers(
        self, tmp_path, manifest
    ):
        self.write_v1(tmp_path / "v1", manifest)
        old = ReplayArchive.load(str(tmp_path / "v1"))
        new = archive_roundtrip(tmp_path / "v2", V1_VALUES)
        assert [r.at for r in old.records] == [0.0, 1.0, 2.5, 3.0, 4.0, 5.0,
                                               6.0, 7.0]
        assert len(old.records) == len(new)
        for record, value in zip(old.records, new):
            assert_same_value(record.value, value)
        written = json.loads((tmp_path / "v2" / "manifest.json").read_text())
        assert written["format"] == "asdf-flight-archive/2"

    def test_unknown_format_tag_is_named_not_guessed(self, tmp_path):
        self.write_v1(tmp_path / "v9", {"format": "asdf-flight-archive/9"})
        with pytest.raises(ValueError, match="asdf-flight-archive/9"):
            ReplayArchive.load(str(tmp_path / "v9"))


class TestRecordingIsDeterministic:
    def record(self, directory):
        core = build_core(
            ALARM_PIPELINE_CONFIG, {"script": {"src": ALARM_SCRIPT}}
        )
        recorder = FlightRecorder(archive_dir=str(directory))
        core.set_flight_recorder(recorder)
        core.run_until(float(len(ALARM_SCRIPT)))
        recorder.close()
        core.close()
        return (directory / "samples.jsonl").read_bytes()

    def test_two_recordings_are_byte_identical(self, tmp_path):
        first = self.record(tmp_path / "a")
        assert first and first == self.record(tmp_path / "b")

    def test_record_framing_is_json_dumps_framing(self, tmp_path):
        # The writer frames records by hand (head bound per output);
        # the bytes must be what json.dumps of the record dict gives.
        for line in self.record(tmp_path / "a").decode().splitlines():
            record = json.loads(line)
            assert list(record) == ["t", "at", "o", "v"]
            assert line == json.dumps(record)

    def test_odd_timestamps_and_names_are_framed_as_json(self, tmp_path):
        writer = ArchiveWriter(str(tmp_path))
        head = writer.note_output(Output(owner_id='we"ird\\', name="é\n"))
        for timestamp in (3, 2.5, float("inf"), float("nan"), np.float64(1.5)):
            writer.write_sample(head, Sample(timestamp, 1), timestamp)
        writer.close()
        lines = (tmp_path / "samples.jsonl").read_text().splitlines()
        for line in lines:
            record = json.loads(line)
            assert line == json.dumps(record)
            assert record["o"] == 'we"ird\\.é\n'
        assert [json.loads(line)["t"] for line in lines[:3]] == [
            3, 2.5, float("inf")
        ]
