"""The fpt-lint diagnostic model: codes, severities, rendering, noqa.

Every fpt-lint check emits :class:`Diagnostic` records with a stable
code.  Codes are grouped by layer:

* ``FPT0xx`` -- configuration analysis (:func:`analyze_config`: the
  lenient parse, then :func:`repro.core.check.check_specs`, the check
  fpt-core makes before it builds a DAG);
* ``FPT3xx`` -- static cost model (:mod:`repro.lint.costmodel`);
* ``FPT4xx`` -- concurrency / data races
  (:mod:`repro.lint.concurrency`).

A diagnostic can be suppressed at its source line with an inline
marker::

    threshold = -5      # fpt: noqa[FPT009]
    self.hits += 1      # fpt: noqa[FPT401] -- single writer: poll thread
    whatever = 1        # fpt: noqa           (suppresses every code)

Each bracketed entry is either a full code of the :data:`CODES` table
(``FPT401``) or a *code prefix* of one to two digits (``FPT3``,
``FPT30``), which suppresses every code it prefixes -- ``# fpt:
noqa[FPT3]`` silences the whole cost model on that line.  Anything else
inside the brackets (``E501``, ``FPT30x``, ``FPT3011``, or ``FPT999`` and
``FPT5``, which name no code) suppresses nothing and is itself reported
as **FPT090**, so neither a typo nor a suppression left behind by a
retired rule can sit in the source suppressing nothing.

:func:`apply_noqa` filters a diagnostic list against the marker lines of
the source text the diagnostics point into; :func:`marker_errors`
reports the malformed entries, and :func:`lint_markers` runs it over
every source file of the ``repro`` package.
"""

from __future__ import annotations

import enum
import importlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.check import WARNING_CODES, check_specs
from ..core.config import ConfigError, InstanceSpec, parse_config
from ..core.registry import ModuleRegistry

#: ``# fpt: noqa`` or ``# fpt: noqa[FPT001,FPT007]`` (case-insensitive).
_NOQA_RE = re.compile(
    r"#\s*fpt:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR`` means the configuration cannot run (or cannot be trusted to
    run deterministically); ``WARNING`` means it will run but something
    is dead, ignored, or suspicious.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The codes :func:`~repro.core.check.check_specs` reports; its
#: ``WARNING_CODES`` decide which of them only warn.
_CHECKED_CODES: Dict[str, str] = {
    "FPT001": "unknown module type",
    "FPT002": "duplicate instance id",
    "FPT003": "wiring references an unknown instance",
    "FPT004": "wiring references a nonexistent output",
    "FPT005": "wiring cycle (DAG construction would fail)",
    "FPT006": "instance unreachable from any sink (dead)",
    "FPT007": "unknown parameter (not declared by the module)",
    "FPT008": "parameter has the wrong type",
    "FPT009": "parameter out of range",
    "FPT010": "required parameter missing",
    "FPT011": "input wiring violates the module contract",
    "FPT012": "trigger threshold exceeds wired connections",
    "FPT013": "peer-comparison group smaller than 3 peers",
}

#: code -> (severity, one-line summary).  The single source of truth for
#: the diagnostic table in README.md.
CODES: Dict[str, "tuple[Severity, str]"] = {
    "FPT000": (Severity.ERROR, "configuration syntax error"),
    **{
        code: (Severity.WARNING if code in WARNING_CODES else Severity.ERROR, summary)
        for code, summary in _CHECKED_CODES.items()
    },
    "FPT090": (Severity.ERROR, "noqa suppression entry names no code"),
    "FPT301": (Severity.ERROR, "config cannot sustain its tick budget"),
    "FPT303": (
        Severity.WARNING,
        "window recomputed from scratch each trigger (slide < window)",
    ),
    "FPT401": (
        Severity.WARNING,
        "cross-thread attribute write without a held lock",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, pointing at a config line or a source location."""

    code: str
    message: str
    #: 1-based line in ``file`` (0 = no position).
    line: int = 0
    #: What the line points into: a config file path, ``<config>`` for
    #: in-memory text, or a Python source path.
    file: str = "<config>"
    #: Config instance id or module type the finding is about, if any.
    instance: str = ""
    severity: Severity = field(default=Severity.ERROR)

    def __post_init__(self) -> None:
        if self.code in CODES:
            object.__setattr__(self, "severity", CODES[self.code][0])

    def render(self) -> str:
        location = self.file
        if self.line:
            location += f":{self.line}"
        subject = f" [{self.instance}]" if self.instance else ""
        return f"{location}: {self.code} {self.severity}:{subject} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "instance": self.instance,
        }


def _names_a_code(entry: str) -> bool:
    """True for an upper-cased noqa entry that is a code of
    :data:`CODES` or a one- or two-digit prefix of at least one."""
    return len(entry) > len("FPT") and any(
        code.startswith(entry) for code in CODES
    )


def noqa_lines(text: str) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line numbers to their suppressed codes/prefixes.

    ``None`` means a bare ``# fpt: noqa`` that suppresses everything on
    that line.  Only entries that name a code (full codes or ``FPT3``-
    style prefixes) are returned; the others suppress nothing and are
    surfaced by :func:`marker_errors` instead.
    """
    markers: Dict[int, Optional[Set[str]]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            markers[line_no] = None
        else:
            parsed = {
                c.strip().upper()
                for c in codes.split(",")
                if _names_a_code(c.strip().upper())
            }
            previous = markers.get(line_no)
            if previous is None and line_no in markers:
                continue  # bare noqa already suppresses everything
            markers[line_no] = (previous or set()) | parsed
    return markers


def marker_errors(text: str, file: str = "<config>") -> List[Diagnostic]:
    """FPT090 diagnostics for noqa entries in ``text`` that name no code.

    A suppression entry must be a full code of :data:`CODES` or a
    ``FPT3`` / ``FPT30`` prefix of one.  Anything else (``E501``,
    ``FPT30x``, ``FPT3011``, ``FPT999``) is reported here so a typo, or
    the code of a rule since retired, cannot silently suppress nothing.
    """
    findings: List[Diagnostic] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match or match.group("codes") is None:
            continue
        for entry in match.group("codes").split(","):
            entry = entry.strip()
            if entry and not _names_a_code(entry.upper()):
                findings.append(
                    Diagnostic(
                        code="FPT090",
                        message=(
                            f"noqa entry {entry!r} is neither an fpt-lint "
                            "code nor a FPT3-style prefix of one; it "
                            "suppresses nothing"
                        ),
                        line=line_no,
                        file=file,
                    )
                )
    return findings


def package_sources(packages: Sequence[str]) -> List[Tuple[str, str]]:
    """``(text, display path)`` for every ``.py`` file of ``packages``,
    package by package, each package's files in path order.

    Display paths start at the package root (``repro/rpc/client.py``).
    """
    marker = os.sep + "repro" + os.sep
    sources: List[Tuple[str, str]] = []
    for package in packages:
        paths = sorted(
            os.path.join(dirpath, name)
            for root in importlib.import_module(package).__path__
            for dirpath, _dirnames, filenames in os.walk(root)
            for name in filenames
            if name.endswith(".py")
        )
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            index = path.rfind(marker)
            sources.append((text, path[index + 1:] if index != -1 else path))
    return sources


def lint_markers(packages: Sequence[str] = ("repro",)) -> List[Diagnostic]:
    """FPT090 for every noqa entry in ``packages``' source that names no
    code -- typos, and the markers a retired rule left behind."""
    return sort_diagnostics(
        diag
        for text, file in package_sources(packages)
        for diag in marker_errors(text, file)
    )


def code_suppressed(code: str, entries: Set[str]) -> bool:
    """True when ``entries`` (full codes or prefixes) cover ``code``."""
    code = code.upper()
    return any(code.startswith(entry) for entry in entries)


def apply_noqa(
    diagnostics: Iterable[Diagnostic], text: str
) -> List[Diagnostic]:
    """Drop diagnostics whose source line carries a matching noqa marker.

    Matching honours prefixes: ``# fpt: noqa[FPT3]`` suppresses every
    FPT3xx code on its line.  FPT090 (a noqa entry naming no code) is never
    suppressed by the marker that carries it -- that would defeat the
    report.
    """
    markers = noqa_lines(text)
    kept: List[Diagnostic] = []
    for diag in diagnostics:
        codes = markers.get(diag.line, ...) if diag.line else ...
        if codes is ... or diag.code == "FPT090":
            kept.append(diag)
        elif codes is not None and not code_suppressed(diag.code, codes):
            kept.append(diag)
    return kept


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable order: by file, line, then code."""
    return sorted(diagnostics, key=lambda d: (d.file, d.line, d.code))


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """Human-readable report, one line per diagnostic plus a summary."""
    diagnostics = sort_diagnostics(diagnostics)
    if not diagnostics:
        return "no diagnostics."
    lines = [diag.render() for diag in diagnostics]
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = len(diagnostics) - errors
    lines.append(f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    """Machine-readable report (a JSON array of diagnostic objects)."""
    return json.dumps(
        [d.to_json() for d in sort_diagnostics(diagnostics)], indent=2
    )


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def default_registry(registry: Optional[ModuleRegistry]) -> ModuleRegistry:
    """``registry``, or the standard one when it is None."""
    if registry is None:
        from ..modules import standard_registry

        registry = standard_registry()
    return registry


def analyze_specs(
    specs: Sequence[InstanceSpec],
    registry: Optional[ModuleRegistry] = None,
    file: str = "<config>",
) -> List[Diagnostic]:
    """:func:`~repro.core.check.check_specs`'s problems as diagnostics
    (no syntax layer, no noqa)."""
    return sort_diagnostics(
        Diagnostic(code=p.code, message=p.message, line=p.line, file=file,
                   instance=p.instance)
        for p in check_specs(specs, default_registry(registry))
    )


def analyze_config(
    text: str,
    registry: Optional[ModuleRegistry] = None,
    file: str = "<config>",
    noqa: bool = True,
) -> List[Diagnostic]:
    """Analyze configuration-file text; returns every diagnostic found.

    The text is parsed leniently (every syntax error and duplicate id is
    collected as FPT000 / FPT002), and the specs are checked against the
    declarations of ``registry``'s classes (default: the standard
    registry).  ``# fpt: noqa`` markers in ``text`` suppress diagnostics
    on their line unless ``noqa=False``.
    """
    errors: List[ConfigError] = []
    specs = parse_config(text, collect=errors)
    diagnostics = [
        Diagnostic(code=e.code, message=str(e), line=e.line_no or 0, file=file)
        for e in errors
    ]
    diagnostics += analyze_specs(specs, registry, file)
    diagnostics += marker_errors(text, file)
    if noqa:
        diagnostics = apply_noqa(diagnostics, text)
    return sort_diagnostics(diagnostics)
