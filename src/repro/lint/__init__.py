"""fpt-lint: static analysis for fpt-core configs and the deployment code.

Three layers, each usable on its own:

* :func:`analyze_config` -- parses a configuration leniently and reports
  every problem of :func:`repro.core.check.check_specs`, the check
  fpt-core makes before it builds a DAG, *without instantiating any
  module* (``FPT0xx`` codes: unknown types, bad wiring, cycles, dead
  instances, parameter type/range errors, scheduling problems).
* :mod:`repro.lint.costmodel` -- folds a parsed configuration's DAG
  into a static per-tick CPU estimate from its table of per-type cost
  facts (``FPT301``: the estimate exceeds the tick budget; ``FPT303``:
  windows recomputed from scratch).
* :mod:`repro.lint.concurrency` -- builds a thread-entry-point graph
  over the deployment packages and flags unlocked cross-thread writes
  to shared state (``FPT401``).

Every layer honours ``# fpt: noqa`` markers, and :func:`lint_markers`
reports the entries that name no code (``FPT090``).  Entry points: the
``repro lint`` CLI subcommand and the functions re-exported here.
"""

from .concurrency import (
    lint_concurrency,
    scan_concurrency_source,
    scan_concurrency_sources,
)
from .costmodel import (
    COST_FACTS,
    DEFAULT_TICK_BUDGET_MS,
    CostFact,
    CostReport,
    CostTerm,
    estimate_config,
    estimate_specs,
)
from .diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    analyze_config,
    analyze_specs,
    apply_noqa,
    has_errors,
    lint_markers,
    marker_errors,
    render_json,
    render_text,
    sort_diagnostics,
)

__all__ = [
    "CODES",
    "COST_FACTS",
    "DEFAULT_TICK_BUDGET_MS",
    "CostFact",
    "CostReport",
    "CostTerm",
    "Diagnostic",
    "Severity",
    "analyze_config",
    "analyze_specs",
    "apply_noqa",
    "estimate_config",
    "estimate_specs",
    "has_errors",
    "lint_concurrency",
    "lint_markers",
    "marker_errors",
    "render_json",
    "render_text",
    "scan_concurrency_source",
    "scan_concurrency_sources",
    "sort_diagnostics",
]
