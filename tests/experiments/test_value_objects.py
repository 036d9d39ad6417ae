"""The contract of the two value objects built on every write and every
round: :class:`repro.core.Sample` and
:class:`repro.analysis.WindowDecision`.

They are tuple-backed so that they construct at tuple speed; everything
a caller could see of the frozen dataclasses they replaced is pinned
here -- construction, fields, equality, ``repr``, immutability -- and so
are the two writers that must not notice: the flight-recorder codec and
the scenario-result document.
"""

import hashlib

import pytest

from repro.analysis import WindowDecision
from repro.core import Output, Sample
from repro.experiments import ScenarioConfig, load_result, run_scenario, save_result
from repro.flightrec.codec import decode_value, encode_value

CASES = [
    (Sample, {"timestamp": 3.0, "value": [1, 2]},
     "Sample(timestamp=3.0, value=[1, 2])"),
    (WindowDecision,
     {"node": "slave03", "window_start": 60.0, "window_end": 120.0,
      "alarmed": True},
     "WindowDecision(node='slave03', window_start=60.0, window_end=120.0, "
     "alarmed=True)"),
]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=["sample", "decision"])
class TestValueObject:
    def test_keyword_and_positional_construction_agree(self, cls, fields, text):
        by_keyword = cls(**fields)
        by_position = cls(*fields.values())
        assert by_keyword == by_position
        for name, value in fields.items():
            assert getattr(by_keyword, name) == value

    def test_equality_is_by_field(self, cls, fields, text):
        first = next(iter(fields))
        other = dict(fields, **{first: "other" if first == "node" else 4.0})
        assert cls(**fields) != cls(**other)

    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_assignment_raises(self, cls, fields, text):
        obj = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            obj.extra = 1

    def test_missing_and_unknown_fields_rejected(self, cls, fields, text):
        with pytest.raises(TypeError):
            cls(*list(fields.values())[:-1])
        with pytest.raises(TypeError):
            cls(**fields, extra=1)


def test_write_builds_the_sample_the_constructor_builds():
    output = Output(owner_id="a", name="b")
    connection = output.subscribe()
    output.write({"k": 1}, 2.5)
    (sample,) = connection.pop_all()
    assert type(sample) is Sample
    assert sample == Sample(timestamp=2.5, value={"k": 1})


def test_codec_writes_a_decision_as_a_decision():
    decision = WindowDecision("slave01", 0.0, 60.0, False)
    encoded = encode_value([decision])
    assert encoded == [{
        "__kind__": "decision", "node": "slave01", "window_start": 0.0,
        "window_end": 60.0, "alarmed": False,
    }]
    (decoded,) = decode_value(encoded)
    assert type(decoded) is WindowDecision and decoded == decision
    assert {decoded, decision} == {decision}  # hashable, by field
    # A real tuple beside it still takes the tuple branch.
    assert encode_value((1, 2))["__kind__"] == "tuple"


#: ``save_result`` of the run below, written at the parent commit (both
#: value objects still frozen dataclasses, ``asdict`` in ``persist``).
PINNED_RESULT = (
    22465, "033041fa25e1b1b943c0542c852a4f838a0e93ed99d8510aa682625509deff87",
)


def test_saved_result_is_byte_identical_to_the_parents(tiny_model, tmp_path):
    config = ScenarioConfig(
        num_slaves=5, duration_s=240.0, seed=13, window=30, slide=30,
        fault_name="CPUHog", inject_time=100.0,
    )
    result = run_scenario(config, model=tiny_model)
    data = save_result(result, tmp_path / "run.json").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == PINNED_RESULT
    loaded = load_result(tmp_path / "run.json")
    assert loaded.decisions_all == result.decisions_all
    assert all(type(d) is WindowDecision for d in loaded.decisions_bb)
