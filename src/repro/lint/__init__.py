"""fpt-lint: static analysis for fpt-core configs and modules.

Five layers, each usable on its own:

* :mod:`repro.lint.analyzer` -- parses a configuration *without
  instantiating any module* and checks it against the declared module
  contracts (``FPT0xx`` codes: unknown types, bad wiring, cycles, dead
  instances, parameter type/range errors, scheduling problems).
* :mod:`repro.lint.implcheck` -- AST-compares each module class's
  actual ``ctx.*`` API usage with its contract (``FPT1xx``), and infers
  contracts for custom module types that never declared one.
* :mod:`repro.lint.determinism` -- flags wall-clock reads and unseeded
  random sources in scenario code paths (``FPT2xx``), the calls that
  break replay and serial/parallel parity.
* :mod:`repro.lint.costmodel` -- folds a parsed configuration's DAG
  into a static per-tick CPU estimate from the contracts' declared
  cost facts (``FPT301``: the estimate exceeds the tick budget;
  ``FPT303``: windows recomputed from scratch).
* :mod:`repro.lint.concurrency` -- builds a thread-entry-point graph
  over the deployment packages and flags cross-thread shared-state
  races (``FPT4xx``: unlocked writes, leak-prone ``acquire()``,
  blocking calls under a lock).

Entry points: the ``repro lint`` CLI subcommand, the ``lint=`` opt-in
on :class:`repro.core.FptCore`, and the functions re-exported here.
"""

from .analyzer import analyze_config, analyze_specs
from .concurrency import (
    concurrency_hints,
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
from .determinism import (
    DEFAULT_PACKAGES,
    determinism_hints,
    lint_determinism,
    scan_source,
)
from .diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    apply_noqa,
    has_errors,
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
    "DEFAULT_PACKAGES",
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
    "concurrency_hints",
    "contracts_for_registry",
    "determinism_hints",
    "estimate_config",
    "estimate_specs",
    "has_errors",
    "infer_contract",
    "lint_concurrency",
    "lint_determinism",
    "marker_errors",
    "render_json",
    "render_text",
    "scan_concurrency_source",
    "scan_concurrency_sources",
    "scan_module_class",
    "scan_source",
    "sort_diagnostics",
    "standard_contracts",
]
