"""What ``bench/`` calls in ``src/`` still exists and still works.

``bench/`` imports ``src/`` by public name and patches spans around
public entry points; the traced passes are the only runs that exercise
some of it.  Read off the harness's own source: every ``from repro...
import`` name resolves, every ``rec.wrap(Owner, "attr", ...)`` target in
``bench/live.py`` is an attribute of its class, and the codec calls
``bench/wire.py``'s traced pass makes round-trip a ``poll_many`` batch.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from repro.rpc import MetricRow
from repro.rpc.codec import CODEC_BINARY, decode_message, encode_response_frame
from repro.rpc.protocol import intern_catalog
from repro.sysstat import NODE_METRICS

BENCH = Path(__file__).resolve().parent.parent / "bench"
SOURCES = sorted(BENCH.glob("*.py"))


def repro_imports(path):
    """(module, name) of every ``from repro... import name`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                yield node.module, alias.name


def test_the_harness_is_there():
    assert {"live.py", "wire.py", "replay.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_repro_name_bench_imports_resolves(path):
    for module, name in repro_imports(path):
        assert hasattr(importlib.import_module(module), name), (path.name, module, name)


def test_every_span_target_in_live_is_an_attribute_of_its_class():
    path = BENCH / "live.py"
    owners = {
        name: getattr(importlib.import_module(module), name)
        for module, name in repro_imports(path)
    }
    targets = [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap" and len(node.args) == 3
        and isinstance(node.args[0], ast.Name) and isinstance(node.args[1], ast.Constant)
    ]
    assert len(targets) >= 5
    for owner, attr in targets:
        assert callable(getattr(owners[owner], attr, None)), (owner, attr)


def test_the_codec_calls_of_the_wire_pass_round_trip_a_batch():
    """As ``WireWorkload._codec_spans`` makes them: the result a
    ``poll_many`` returned, encoded and decoded once more."""
    catalog = intern_catalog(NODE_METRICS)
    windows = [
        {"timestamp": 10.0 + at, "node_name": "node-01",
         "node": MetricRow(catalog, np.arange(64.0) * at), "emit_wall": 1.7e9 + at}
        for at in range(16)
    ]
    result = {"node_name": "node-01", "windows": windows}
    frame = encode_response_frame({"id": 1, "result": result}, "poll_many", catalog,
                                  CODEC_BINARY)
    payload, consumed = decode_message(frame, "", catalog)
    assert consumed == len(frame) and frame[4] == 0xA5
    assert payload == {"id": 1, "result": result}
