"""Every example runs: each ``examples/*.py`` ``main()`` to its end.

An example is what a reader runs first, so one that no longer runs
fails here.  Each runs in its own working directory with no command-line
arguments and the temp dir inside it, so nothing it writes outlives the
test.
"""

import glob
import importlib.util
import os
import sys
import tempfile

import pytest

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "examples", "*.py"
)))


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[os.path.basename(p)[:-3] for p in EXAMPLES]
)
def test_every_example_runs(path, tmp_path, monkeypatch, capsys):
    name = "example_" + os.path.basename(path)[:-3]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [path])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    module.main()
    assert capsys.readouterr().out.strip()


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 6
