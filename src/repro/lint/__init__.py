"""fpt-lint: static analysis for fpt-core configs and modules.

Four layers, each usable on its own:

* :mod:`repro.lint.analyzer` -- parses a configuration *without
  instantiating any module* and checks it against the declared module
  contracts (``FPT0xx`` codes: unknown types, bad wiring, cycles, dead
  instances, parameter type/range errors, scheduling problems).
* :mod:`repro.lint.implcheck` -- AST-compares each module class's
  actual ``ctx.*`` API usage with its contract (``FPT1xx``), and infers
  contracts for custom module types that never declared one.
* :mod:`repro.lint.costmodel` -- folds a parsed configuration's DAG
  into a static per-tick CPU estimate from the contracts' declared
  cost facts (``FPT301``: the estimate exceeds the tick budget;
  ``FPT303``: windows recomputed from scratch).
* :mod:`repro.lint.concurrency` -- builds a thread-entry-point graph
  over the deployment packages and flags unlocked cross-thread writes
  to shared state (``FPT401``).

Every layer honours ``# fpt: noqa`` markers, and :func:`lint_markers`
reports the entries that name no code (``FPT090``).  Entry points: the
``repro lint`` CLI subcommand and the functions re-exported here.
"""

from .analyzer import analyze_config, analyze_specs
from .concurrency import (
    lint_concurrency,
    scan_concurrency_source,
    scan_concurrency_sources,
)
from .contracts import (
    ContractRegistry,
    CostFact,
    CostTerm,
    InputPortSpec,
    ModuleContract,
    ParamSpec,
    TriggerSpec,
    standard_contracts,
)
from .costmodel import (
    DEFAULT_TICK_BUDGET_MS,
    CostReport,
    estimate_config,
    estimate_specs,
)
from .diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    apply_noqa,
    has_errors,
    lint_markers,
    marker_errors,
    render_json,
    render_text,
    sort_diagnostics,
)
from .implcheck import (
    check_implementation,
    check_registry,
    contracts_for_registry,
    infer_contract,
    scan_module_class,
)

__all__ = [
    "CODES",
    "DEFAULT_TICK_BUDGET_MS",
    "ContractRegistry",
    "CostFact",
    "CostReport",
    "CostTerm",
    "Diagnostic",
    "InputPortSpec",
    "ModuleContract",
    "ParamSpec",
    "Severity",
    "TriggerSpec",
    "analyze_config",
    "analyze_specs",
    "apply_noqa",
    "check_implementation",
    "check_registry",
    "contracts_for_registry",
    "estimate_config",
    "estimate_specs",
    "has_errors",
    "infer_contract",
    "lint_concurrency",
    "lint_markers",
    "marker_errors",
    "render_json",
    "render_text",
    "scan_concurrency_source",
    "scan_concurrency_sources",
    "scan_module_class",
    "sort_diagnostics",
    "standard_contracts",
]
