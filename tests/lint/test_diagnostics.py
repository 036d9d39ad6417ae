"""The diagnostic model: codes, rendering, noqa suppression."""

import json

import pytest

from repro.lint.diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    apply_noqa,
    has_errors,
    marker_errors,
    noqa_lines,
    render_json,
    render_text,
    sort_diagnostics,
)


class TestCodes:
    def test_every_code_has_severity_and_summary(self):
        for code, (severity, summary) in CODES.items():
            assert code.startswith("FPT") and len(code) == 6
            assert isinstance(severity, Severity)
            assert summary

    def test_severity_comes_from_the_table(self):
        assert Diagnostic("FPT006", "x").severity is Severity.WARNING
        assert Diagnostic("FPT001", "x").severity is Severity.ERROR

    def test_unknown_code_defaults_to_error(self):
        assert Diagnostic("FPT999", "x").severity is Severity.ERROR


class TestRendering:
    def test_render_includes_location_code_and_instance(self):
        diag = Diagnostic(
            "FPT004", "does not exist", line=12, file="a.conf", instance="k1"
        )
        assert diag.render() == (
            "a.conf:12: FPT004 error: [k1] does not exist"
        )

    def test_render_without_line_or_instance(self):
        assert Diagnostic("FPT301", "tick").render() == (
            "<config>: FPT301 error: tick"
        )

    def test_render_text_summarises_counts(self):
        text = render_text(
            [Diagnostic("FPT001", "a"), Diagnostic("FPT006", "b")]
        )
        assert text.endswith("1 error(s), 1 warning(s)")

    def test_render_text_empty(self):
        assert render_text([]) == "no diagnostics."

    def test_render_json_round_trips(self):
        data = json.loads(
            render_json([Diagnostic("FPT008", "bad", line=3, instance="i")])
        )
        assert data == [
            {
                "code": "FPT008",
                "severity": "error",
                "message": "bad",
                "file": "<config>",
                "line": 3,
                "instance": "i",
            }
        ]

    def test_sort_is_by_file_line_code(self):
        diags = [
            Diagnostic("FPT007", "w", line=9, file="b"),
            Diagnostic("FPT001", "x", line=2, file="b"),
            Diagnostic("FPT005", "y", line=30, file="a"),
        ]
        ordered = sort_diagnostics(diags)
        assert [d.file for d in ordered] == ["a", "b", "b"]
        assert [d.line for d in ordered[1:]] == [2, 9]

    def test_has_errors_ignores_warnings(self):
        assert not has_errors([Diagnostic("FPT006", "dead")])
        assert has_errors([Diagnostic("FPT006", "w"), Diagnostic("FPT003", "e")])


class TestNoqa:
    def test_bare_marker_suppresses_everything(self):
        text = "a = 1\nb = 2  # fpt: noqa\n"
        diags = [
            Diagnostic("FPT007", "x", line=2),
            Diagnostic("FPT008", "y", line=2),
        ]
        assert apply_noqa(diags, text) == []

    def test_coded_marker_suppresses_only_listed_codes(self):
        text = "a = 1  # fpt: noqa[FPT007]\n"
        kept = apply_noqa(
            [
                Diagnostic("FPT007", "x", line=1),
                Diagnostic("FPT008", "y", line=1),
            ],
            text,
        )
        assert [d.code for d in kept] == ["FPT008"]

    def test_multiple_codes_and_case_insensitivity(self):
        markers = noqa_lines("x  # FPT: NOQA[fpt007, FPT009]\n")
        assert markers == {1: {"FPT007", "FPT009"}}

    def test_other_lines_unaffected(self):
        text = "a = 1  # fpt: noqa\nb = 2\n"
        kept = apply_noqa([Diagnostic("FPT008", "y", line=2)], text)
        assert len(kept) == 1

    def test_positionless_diagnostics_never_suppressed(self):
        kept = apply_noqa([Diagnostic("FPT010", "m")], "# fpt: noqa\n")
        assert len(kept) == 1


class TestNoqaPrefixes:
    def test_one_digit_prefix_suppresses_the_whole_layer(self):
        text = "a = 1  # fpt: noqa[FPT3]\n"
        kept = apply_noqa(
            [
                Diagnostic("FPT301", "x", line=1),
                Diagnostic("FPT303", "y", line=1),
                Diagnostic("FPT401", "z", line=1),
            ],
            text,
        )
        assert [d.code for d in kept] == ["FPT401"]

    def test_two_digit_prefix_narrows_to_a_decade(self):
        text = "a = 1  # fpt: noqa[FPT01]\n"
        kept = apply_noqa(
            [
                Diagnostic("FPT012", "x", line=1),
                Diagnostic("FPT002", "y", line=1),
            ],
            text,
        )
        assert [d.code for d in kept] == ["FPT002"]

    def test_full_code_still_matches_exactly(self):
        text = "a = 1  # fpt: noqa[FPT301]\n"
        kept = apply_noqa(
            [
                Diagnostic("FPT301", "x", line=1),
                Diagnostic("FPT303", "y", line=1),
            ],
            text,
        )
        assert [d.code for d in kept] == ["FPT303"]

    def test_prefixes_parse_alongside_full_codes(self):
        markers = noqa_lines("x  # fpt: noqa[FPT3, FPT401]\n")
        assert markers == {1: {"FPT3", "FPT401"}}


class TestMalformedNoqa:
    def test_malformed_entry_reports_fpt090(self):
        findings = marker_errors("t = 1  # fpt: noqa[E501]\n", file="f.py")
        assert [d.code for d in findings] == ["FPT090"]
        assert "E501" in findings[0].message
        assert findings[0].line == 1

    def test_too_long_prefix_is_malformed(self):
        findings = marker_errors("t = 1  # fpt: noqa[FPT3011]\n")
        assert [d.code for d in findings] == ["FPT090"]

    def test_malformed_entry_suppresses_nothing(self):
        text = "t = 1  # fpt: noqa[FPT30x]\n"
        kept = apply_noqa([Diagnostic("FPT303", "x", line=1)], text)
        assert [d.code for d in kept] == ["FPT303"]

    def test_fpt090_is_never_self_suppressed(self):
        # The malformed marker cannot silence its own report, even when
        # a valid prefix covering FPT0xx rides on the same line.
        text = "t = 1  # fpt: noqa[FPT0, E999]\n"
        findings = marker_errors(text)
        assert [d.code for d in findings] == ["FPT090"]
        assert apply_noqa(findings, text) == findings

    def test_valid_entries_on_a_mixed_line_still_work(self):
        text = "t = 1  # fpt: noqa[FPT301, E501]\n"
        kept = apply_noqa([Diagnostic("FPT301", "x", line=1)], text)
        assert kept == []
        assert [d.code for d in marker_errors(text)] == ["FPT090"]

    def test_clean_markers_report_nothing(self):
        assert marker_errors("a = 1  # fpt: noqa[FPT301]\nb = 2\n") == []
        assert marker_errors("a = 1  # fpt: noqa\n") == []
        assert marker_errors("a = 1  # fpt: noqa[FPT3, FPT30, fpt401]\n") == []

    @pytest.mark.parametrize(
        "entry",
        [
            "FPT999",  # well-formed, names nothing
            "FPT210",  # a typo of the retired FPT201
            "FPT310",  # retired rules
            "FPT201",
            "FPT402",
            "FPT2",    # a retired layer
            "FPT5",    # prefixes nothing
            "FPT31",
        ],
    )
    def test_entry_naming_no_code_reports_fpt090(self, entry):
        text = f"x = 1  # fpt: noqa[{entry}]\n"
        findings = marker_errors(text)
        assert [d.code for d in findings] == ["FPT090"]
        assert entry in findings[0].message
        assert noqa_lines(text) == {1: set()}

    def test_every_code_and_its_prefixes_are_accepted(self):
        for code in CODES:
            for entry in (code, code[:5], code[:4]):
                assert marker_errors(f"x = 1  # fpt: noqa[{entry}]\n") == []
