"""One check, two readers: ``repro lint`` and fpt-core agree.

Every module class declares its interface once.  ``analyze_config``
reports a config that breaks the declaration (params FPT007-010, graph
FPT003-013), and ``FptCore.from_config`` refuses to build the same config
with a ``ConfigError`` carrying the same message and naming the instance
-- before any module's ``init()`` runs, so no services are needed here.
"""

import pytest

from repro.core import ConfigError, FptCore, SimClock
from repro.experiments import ScenarioConfig, run_scenario
from repro.lint import analyze_config
from repro.modules import standard_registry

#: (section, code, message): the section is one instance ``x``.
PARITY = [
    # FPT007: a param the class does not declare.
    ("[sadc]\nnodes = n1\nbanana = 7", "FPT007",
     "parameter 'banana' is not declared by [sadc]"),
    ("[alarm_union]\nwindow = 60", "FPT007",
     "parameter 'window' is not declared by [alarm_union]"),
    # FPT008: text that does not parse as the declared type.
    ("[sadc]\nnodes = n1\ninterval = fast", "FPT008",
     "parameter 'interval' must be float, got 'fast'"),
    ("[mavgvec]\nwindow = sixty", "FPT008",
     "parameter 'window' must be int, got 'sixty'"),
    ("[print]\nquiet = maybe", "FPT008",
     "parameter 'quiet' must be bool, got 'maybe'"),
    # FPT009: below a minimum, not positive, not a choice.
    ("[ibuffer]\nsize = 0", "FPT009", "parameter 'size' must be >= 1, got 0"),
    ("[knn]\nk = 0", "FPT009", "parameter 'k' must be >= 1, got 0"),
    ("[sadc]\nnodes = n1\ninterval = 0", "FPT009",
     "parameter 'interval' must be > 0, got 0.0"),
    ("[sadc]\nnodes = n1\nphase = -5", "FPT009",
     "parameter 'phase' must be >= 0, got -5.0"),
    ("[analysis_wb]\nk = -1", "FPT009", "parameter 'k' must be >= 0, got -1.0"),
    ("[analysis_wb]\nk = 0", None, None),
    ("[syscall_anomaly]\nbaseline_windows = 0", "FPT009",
     "parameter 'baseline_windows' must be >= 1, got 0"),
    ("[syscall_anomaly]\nthreshold = -1", "FPT009",
     "parameter 'threshold' must be >= 0, got -1.0"),
    ("[threshold_alarm]\nbound = 1\ndirection = sideways", "FPT009",
     "parameter 'direction' must be one of ['above', 'below'], got 'sideways'"),
    ("[sadc]\nnodes = n1\nmetrics = ldavg_1, bogus", "FPT009",
     "parameter 'metrics' has unknown item(s) ['bogus']"),
    # FPT009: each cross-param rule.
    ("[ibuffer]\nsize = 5\nslide = 9", "FPT009", "slide (9) must be <= size (5)"),
    ("[ibuffer]\nsize = 5\nslide = 5", None, None),
    ("[mavgvec]\nwindow = 60\nslide = 90", "FPT009",
     "slide (90) must be <= window (60)"),
    ("[syscall_anomaly]\nwindow = 60\nslide = 90", "FPT009",
     "slide (90) must be <= window (60)"),
    ("[analysis_bb]\nthreshold = 40\nnum_states = 5\nslide = 90", "FPT009",
     "slide (90) must be <= window (60)"),
    ("[analysis_wb]\nwindow = 30\nslide = 31", "FPT009",
     "slide (31) must be <= window (30)"),
    ("[hadoop_log]\nnodes =", "FPT009", "'nodes' is empty: name at least one node"),
    ("[sadc]\nnodes =", "FPT009", "'nodes' is empty: name at least one node"),
    # A node named twice would name two outputs alike.
    ("[hadoop_log]\nnodes = a,b,a", "FPT009", "'nodes' names ['a'] more than once"),
    ("[sadc]\nnodes = a,b,a", "FPT009", "'nodes' names ['a'] more than once"),
    ("[sadc]\nnodes = a,b", None, None),
    # FPT010: a required param left out.
    ("[sadc]\ninterval = 1", "FPT010", "required parameter 'nodes' (list) is missing"),
    ("[analysis_bb]\nnum_states = 5", "FPT010",
     "required parameter 'threshold' (float) is missing"),
    ("[csv_writer]", "FPT010", "required parameter 'path' (str) is missing"),
]


def config(section):
    header, _, body = section.partition("\n")
    return f"{header}\nid = x\n{body}\n"


@pytest.mark.parametrize(
    "section,code,message", PARITY, ids=[row[0].split("\n", 1)[0] + " " + str(row[1])
                                         for row in PARITY],
)
def test_lint_and_core_reject_with_the_same_message(section, code, message):
    text = config(section)
    found = [
        (d.code, d.message) for d in analyze_config(text)
        if d.code in ("FPT007", "FPT008", "FPT009", "FPT010")
    ]
    if code is None:
        assert found == []
        return
    assert any(c == code and message in m for c, m in found), found
    with pytest.raises(ConfigError) as raised:
        FptCore.from_config(text, standard_registry(), SimClock())
    assert message in str(raised.value)
    assert "instance 'x'" in str(raised.value)
    assert raised.value.line_no is not None


#: (config, code, message): the graph checks, each first raised at ``x``.
GRAPH_PARITY = [
    ("[print]\nid = x\ninput[a] = ghost.alarms\n", "FPT003",
     "input 'a' references unknown instance 'ghost'"),
    ("[sadc]\nid = s\nnodes = n1\n\n[print]\nid = x\ninput[a] = s.nope\n", "FPT004",
     "'s.nope' does not exist (outputs of [sadc]: ['n1'])"),
    ("[mavgvec]\nid = x\ninput[input] = y.mean\n\n"
     "[mavgvec]\nid = y\ninput[input] = x.mean\n", "FPT005",
     "wiring cycle through instances ['x', 'y']"),
    ("[mavgvec]\nid = x\ninput[input] = x.mean\n", "FPT005",
     "input 'input' wires the instance to its own outputs"),
    # FPT011: a source with an input, a single port wired twice, a
    # required port left unwired.
    ("[sadc]\nid = s\nnodes = n1\n\n[sadc]\nid = x\nnodes = n2\ninput[in] = s.n1\n",
     "FPT011", "[sadc] is a data source and accepts no inputs, but ['in'] are wired"),
    ("[sadc]\nid = s\nnodes = n1,n2\n\n"
     "[knn]\nid = x\ninput[input] = s.n1\ninput[input] = s.n2\n", "FPT011",
     "input port 'input' takes at most 1 connection(s), 2 wired"),
    ("[knn]\nid = x\n", "FPT011", "required input port 'input' is not wired"),
    ("[hadoop_log]\nid = h\nnodes = n1,n2\n\n"
     "[analysis_wb]\nid = x\ninput[a] = h.n1\ninput[b] = h.n2\n", "FPT013",
     "peer comparison needs at least 3 peers, got 2 wired connection(s)"),
]


@pytest.mark.parametrize(
    "text,code,message", GRAPH_PARITY,
    ids=[f"{row[1]}-{i}" for i, row in enumerate(GRAPH_PARITY)],
)
def test_lint_and_core_agree_on_the_graph(text, code, message):
    lines = [d.line for d in analyze_config(text)
             if d.code == code and d.message == message and d.instance == "x"]
    assert lines, analyze_config(text)
    with pytest.raises(ConfigError) as raised:
        FptCore.from_config(text, standard_registry(), SimClock())
    assert str(raised.value) == f"instance 'x': {message}"
    assert raised.value.code == code
    assert raised.value.line_no == lines[0]


@pytest.mark.parametrize(
    "module_type", ["ibuffer", "mavgvec", "syscall_anomaly", "analysis_bb", "analysis_wb"],
)
def test_every_window_rejects_a_slide_past_its_window(module_type):
    size = "size" if module_type == "ibuffer" else "window"
    extra = "threshold = 40\nnum_states = 5\n" if module_type == "analysis_bb" else ""
    text = f"[{module_type}]\nid = w\n{extra}{size} = 60\nslide = 90\n"
    message = f"slide (90) must be <= {size} (60)"
    assert [d.code for d in analyze_config(text) if message in d.message] == ["FPT009"]
    with pytest.raises(ConfigError, match=r"instance 'w': slide \(90\)"):
        FptCore.from_config(text, standard_registry(), SimClock())


def test_a_scenario_with_a_slide_past_its_window_fails_at_build():
    """It used to die inside the window ring with a bare ValueError that
    named no instance, after the lint had passed it."""
    with pytest.raises(ConfigError, match=r"slide \(90\) must be <= window \(60\)"):
        run_scenario(ScenarioConfig(num_slaves=5, window=60, slide=90, duration_s=30))
