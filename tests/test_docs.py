"""The docs cite what exists: paths, ``repro.*`` names and CLI flags.

README.md, DESIGN.md and EXPERIMENTS.md are what a reader runs commands
from; a renamed file, module or flag should fail here rather than in
their terminal.
"""

import importlib
import os
import re

import pytest

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_PATH_RE = re.compile(
    r"(?<![\w./-])((?:src|tests|bench|benchmarks|examples)/[\w./-]*)"
)
_NAME_RE = re.compile(r"`(repro(?:\.\w+)+)")
_FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
_INLINE_RE = re.compile(r"`([^`]+)`")
_INVOKE = "python -m repro"


def _read(doc):
    with open(os.path.join(ROOT, doc), encoding="utf-8") as handle:
        return handle.read()


def _invocations(text):
    """The argument tail of every ``python -m repro ...`` the text shows,
    from fenced blocks (backslash continuations joined, comments cut)
    and from inline code spans (line wraps joined)."""
    tails = []
    for block in _FENCE_RE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            if _INVOKE in line:
                tails.append(line.split(_INVOKE, 1)[1].split("#", 1)[0])
    prose = _FENCE_RE.sub("", text)
    for span in _INLINE_RE.findall(prose):
        if _INVOKE in span:
            tails.append(" ".join(span.split()).split(_INVOKE, 1)[1])
    return [tail.split() for tail in tails if tail.split()]


def _subcommands(parser):
    for action in parser._actions:
        if action.choices and isinstance(action.choices, dict):
            return action.choices
    return {}


def _options(parser):
    return {flag for action in parser._actions for flag in action.option_strings}


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    missing = sorted({
        path
        for path in (m.rstrip(".") for m in _PATH_RE.findall(_read(doc)))
        if not os.path.exists(os.path.join(ROOT, path))
    })
    assert missing == []


@pytest.mark.parametrize("doc", DOCS)
def test_cited_repro_names_import(doc):
    unresolved = []
    for name in sorted(set(_NAME_RE.findall(_read(doc)))):
        parts = name.split(".")
        for split in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            try:
                for attr in parts[split:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                unresolved.append(name)
            break
    assert unresolved == []


@pytest.mark.parametrize("doc", DOCS)
def test_cited_cli_flags_resolve(doc):
    commands = _subcommands(build_parser())
    unresolved = []
    for tokens in _invocations(_read(doc)):
        parser = commands.get(tokens[0])
        if parser is None:
            unresolved.append(" ".join(tokens))
            continue
        nested = _subcommands(parser)
        if nested:
            parser = nested.get(tokens[1]) if len(tokens) > 1 else None
            if parser is None:
                unresolved.append(" ".join(tokens))
                continue
        unresolved.extend(
            f"{tokens[0]} {flag}"
            for flag in (t.split("=", 1)[0] for t in tokens if t.startswith("--"))
            if flag not in _options(parser)
        )
    assert unresolved == []


def test_the_scan_sees_the_cli_examples():
    # Guard against the extraction silently finding nothing.
    tokens = _invocations(_read("README.md"))
    assert ["lint", "--cost", "--slaves", "1000"] in tokens
    assert any(t[:2] == ["cluster", "drive"] for t in tokens)
