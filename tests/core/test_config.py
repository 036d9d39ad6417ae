"""Tests for the fpt-core configuration parser."""

import pytest
from hypothesis import given, strategies as st

from repro.core import ConfigError, InputSpec, parse_config, render_config

FIG3_SNIPPET = """
[ibuffer]
id = buf1
input[input] = onenn0.output0
size = 10

[ibuffer]
id = buf2
input[input] = onenn0.output0
size = 10

[analysis_bb]
id = analysis
threshold = 5
window = 15
slide = 5
input[l0] = @buf0
input[l1] = @buf1

[print]
id = BlackBoxAlarm
input[a] = @analysis
"""


class TestParsing:
    def test_paper_figure3_snippet_parses(self):
        specs = parse_config(FIG3_SNIPPET)
        assert [s.instance_id for s in specs] == [
            "buf1",
            "buf2",
            "analysis",
            "BlackBoxAlarm",
        ]
        assert specs[0].module_type == "ibuffer"
        assert specs[0].params == {"size": "10"}
        assert specs[2].params["threshold"] == "5"

    def test_named_output_input(self):
        specs = parse_config("[m]\nid = a\ninput[x] = other.out\n")
        assert specs[0].inputs == [InputSpec("x", "other", "out")]

    def test_at_syntax_wires_all_outputs(self):
        specs = parse_config("[m]\nid = a\ninput[x] = @other\n")
        assert specs[0].inputs == [InputSpec("x", "other", None)]

    def test_auto_generated_ids_count_per_type(self):
        specs = parse_config("[sadc]\n\n[sadc]\n\n[knn]\n")
        assert [s.instance_id for s in specs] == ["sadc0", "sadc1", "knn0"]

    def test_comments_are_stripped(self):
        specs = parse_config("# leading comment\n[m]\nid = a ; trailing\nk = v # tail\n")
        assert specs[0].instance_id == "a"
        assert specs[0].params == {"k": "v"}

    def test_values_may_contain_spaces_and_equals(self):
        specs = parse_config("[m]\nid = a\npath = /tmp/x y=z\n")
        assert specs[0].params["path"] == "/tmp/x y=z"

    def test_empty_config_gives_no_specs(self):
        assert parse_config("") == []
        assert parse_config("\n\n# only comments\n") == []

    def test_multiple_inputs_on_same_name_allowed(self):
        specs = parse_config("[m]\nid = a\ninput[x] = b.o1\ninput[x] = b.o2\n")
        assert len(specs[0].inputs) == 2


class TestErrors:
    def test_assignment_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("k = v\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[m]\nnonsense\n")

    def test_duplicate_parameter(self):
        with pytest.raises(ConfigError, match="duplicate parameter"):
            parse_config("[m]\nk = 1\nk = 2\n")

    def test_duplicate_id_assignment(self):
        with pytest.raises(ConfigError, match="duplicate 'id'") as raised:
            parse_config("[m]\nid = a\nid = b\n")
        assert raised.value.code == "FPT000"  # a syntax error

    def test_duplicate_instance_ids_across_sections(self):
        with pytest.raises(ConfigError, match="duplicate instance id") as raised:
            parse_config("[m]\nid = a\n\n[n]\nid = a\n")
        assert raised.value.code == "FPT002"

    def test_bad_instance_id(self):
        with pytest.raises(ConfigError, match="bad instance id"):
            parse_config("[m]\nid = has space\n")

    def test_input_value_without_dot_or_at(self):
        with pytest.raises(ConfigError, match="instance.output"):
            parse_config("[m]\ninput[x] = nodots\n")

    def test_input_value_with_bad_at_target(self):
        with pytest.raises(ConfigError, match="bad instance id"):
            parse_config("[m]\ninput[x] = @bad name\n")

    def test_duplicate_identical_input_wiring(self):
        with pytest.raises(ConfigError, match="duplicate input"):
            parse_config("[m]\ninput[x] = a.o\ninput[x] = a.o\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_config("[m]\n = v\n")


class TestRendering:
    def test_render_parse_round_trip(self):
        specs = parse_config(FIG3_SNIPPET)
        rendered = render_config(specs)
        assert parse_config(rendered) == specs

    def test_render_includes_inputs_and_params(self):
        text = render_config(parse_config("[m]\nid = a\ninput[x] = @b\nk = v\n"))
        assert "input[x] = @b" in text
        assert "k = v" in text


_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)


@given(
    types=st.lists(_IDENT, min_size=1, max_size=4),
    params=st.dictionaries(
        _IDENT,
        st.text(
            alphabet=st.characters(
                whitelist_categories=("L", "N"), whitelist_characters=" ._/"
            ),
            min_size=1,
            max_size=12,
        ).map(str.strip).filter(bool),
        max_size=3,
    ),
)
def test_property_render_parse_round_trip(types, params):
    """Any config built from valid identifiers round-trips exactly."""
    lines = []
    for index, module_type in enumerate(types):
        lines.append(f"[{module_type}]")
        lines.append(f"id = inst{index}")
        for key, value in params.items():
            if key == "id":
                continue
            lines.append(f"{key} = {value}")
    text = "\n".join(lines) + "\n"
    specs = parse_config(text)
    assert parse_config(render_config(specs)) == specs
