"""Determinism lint (FPT2xx): protect the byte-parity guarantee.

The parallel experiment engine promises that ``jobs=N`` runs are
byte-identical to serial ones (``parity_mismatches()``), and archive
replay promises byte-identical alarms.  Both break the moment a module
or analysis reads the wall clock or an unseeded random source, because
those values differ between the recording/serial run and the
replay/parallel run.

This lint walks Python source under :data:`DEFAULT_PACKAGES` (the code
that executes inside scenario runs) and flags:

* **FPT201** wall-clock reads: ``time.time()``, ``time.time_ns()``,
  ``time.localtime()/ctime()/gmtime()``, ``datetime.now()/utcnow()/
  today()`` and other ``Date``-like reads.  Simulated time must come
  from ``ctx.clock.now()``; wall time for *measurement* may use
  ``time.perf_counter()``/``monotonic()``, which are not flagged.
* **FPT202** unseeded randomness: the ``random`` module's global
  functions, numpy's legacy global ``np.random.*`` calls, and
  ``default_rng()``/``RandomState()`` constructed without a seed.

Suppress a deliberate use (e.g. stamping a benchmark file's creation
time) with ``# fpt: noqa[FPT201]`` on the offending line.
"""

from __future__ import annotations

import ast
import importlib
import os
from typing import Iterable, List, Optional, Sequence, Tuple

from .diagnostics import (
    Diagnostic,
    apply_noqa,
    marker_errors,
    sort_diagnostics,
)

#: Packages whose code runs inside scenario executions and must stay
#: deterministic for parity and replay.  ``repro.obsv`` runs inside
#: observatory-enabled scenarios: its wall-clock reads are confined to
#: perf_counter/monotonic measurement plus explicitly-suppressed
#: metadata stamps, and this lint keeps it that way.  ``repro.sim`` is
#: the simulator core itself: the fleet's bit parity with the per-node
#: reference tick (``tests/sim``) depends on every stochastic draw flowing
#: through seeded per-node generators, never global or wall-clock state.
#: ``repro.cluster``/``repro.rpc``/``repro.telemetry`` host the daemons a
#: deployed scenario runs through; their wall-clock reads are confined to
#: explicitly-suppressed liveness/measurement sites.
DEFAULT_PACKAGES = (
    "repro.modules", "repro.analysis", "repro.experiments", "repro.obsv",
    "repro.sim", "repro.cluster", "repro.rpc", "repro.telemetry",
)

#: ``time.<fn>()`` reads that return wall-clock-dependent values.
_WALL_CLOCK_TIME_FNS = {
    "time", "time_ns", "localtime", "ctime", "gmtime", "asctime",
}

#: ``<datetime-ish>.<fn>()`` constructors reading the wall clock.
_WALL_CLOCK_DATE_FNS = {"now", "utcnow", "today", "fromtimestamp"}

#: Functions on the ``random`` module's hidden global generator.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "seed", "getrandbits", "vonmisesvariate",
}

#: numpy's legacy global-state RNG functions (``np.random.<fn>``).
_NUMPY_GLOBAL_FNS = {
    "rand", "randn", "random", "randint", "random_sample", "ranf",
    "sample", "uniform", "choice", "shuffle", "permutation", "normal",
    "standard_normal", "seed", "exponential", "poisson", "binomial",
}

#: RNG constructors that are deterministic only when given a seed.
_SEEDABLE_CONSTRUCTORS = {"default_rng", "RandomState", "Random"}


def _dotted_name(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` attribute chains as ``["a", "b", "c"]``; None otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, file: str) -> None:
        self.file = file
        self.findings: List[Diagnostic] = []

    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            Diagnostic(
                code=code,
                message=message,
                line=getattr(node, "lineno", 0),
                file=self.file,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted_name(node.func)
        if chain:
            self._check_chain(chain, node)
        self.generic_visit(node)

    def _check_chain(self, chain: List[str], node: ast.Call) -> None:
        root, leaf = chain[0], chain[-1]
        dotted = ".".join(chain)

        # time.time() and friends.
        if root == "time" and len(chain) == 2 and leaf in _WALL_CLOCK_TIME_FNS:
            # gmtime(ts)/localtime(ts)/ctime(ts) with an explicit
            # timestamp argument are pure conversions.
            if leaf in ("localtime", "ctime", "gmtime", "asctime") and node.args:
                return
            self._emit(
                "FPT201",
                f"wall-clock read '{dotted}()'; use the injected "
                "ctx.clock (simulated time) or time.perf_counter() for "
                "duration measurement",
                node,
            )
            return

        # datetime.datetime.now(), datetime.utcnow(), date.today(), ...
        if leaf in _WALL_CLOCK_DATE_FNS and any(
            part in ("datetime", "date") for part in chain[:-1]
        ):
            if leaf == "fromtimestamp" and node.args:
                return  # explicit timestamp: deterministic conversion
            self._emit(
                "FPT201",
                f"wall-clock read '{dotted}()'; derive timestamps from "
                "the scenario clock instead",
                node,
            )
            return

        # random.<fn>() on the module's hidden global generator.
        if root == "random" and len(chain) == 2 and leaf in _GLOBAL_RANDOM_FNS:
            self._emit(
                "FPT202",
                f"global random source '{dotted}()'; use a seeded "
                "random.Random(seed) / np.random.default_rng(seed)",
                node,
            )
            return

        # np.random.<fn>() legacy global-state API.
        if (
            root in ("np", "numpy")
            and len(chain) >= 3
            and chain[1] == "random"
            and leaf in _NUMPY_GLOBAL_FNS
        ):
            self._emit(
                "FPT202",
                f"numpy global random state '{dotted}()'; use "
                "np.random.default_rng(seed)",
                node,
            )
            return

        # default_rng() / RandomState() / Random() without a seed.
        if leaf in _SEEDABLE_CONSTRUCTORS and not node.args and not node.keywords:
            self._emit(
                "FPT202",
                f"'{dotted}()' constructed without a seed; pass an "
                "explicit seed for reproducible runs",
                node,
            )


def scan_source(text: str, file: str = "<source>") -> List[Diagnostic]:
    """Determinism-lint one Python source string (honours noqa markers)."""
    try:
        tree = ast.parse(text)
    except SyntaxError as error:
        return [
            Diagnostic(
                code="FPT000",
                message=f"cannot parse: {error.msg}",
                line=error.lineno or 0,
                file=file,
            )
        ]
    visitor = _DeterminismVisitor(file)
    visitor.visit(tree)
    findings = visitor.findings + marker_errors(text, file)
    return apply_noqa(findings, text)


def _package_files(package: str) -> List[str]:
    module = importlib.import_module(package)
    paths = getattr(module, "__path__", None)
    if paths is None:  # plain module, not a package
        return [module.__file__] if module.__file__ else []
    files: List[str] = []
    for path in paths:
        for dirpath, _dirnames, filenames in os.walk(path):
            files.extend(
                os.path.join(dirpath, name)
                for name in filenames
                if name.endswith(".py")
            )
    return sorted(files)


def _display_path(path: str) -> str:
    """Shorten absolute source paths to start at the package root."""
    marker = os.sep + "repro" + os.sep
    index = path.find(marker)
    return path[index + 1 :] if index != -1 else path


def scan_files(paths: Iterable[str]) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        diagnostics.extend(scan_source(text, file=_display_path(path)))
    return sort_diagnostics(diagnostics)


def lint_determinism(
    packages: Sequence[str] = DEFAULT_PACKAGES,
) -> List[Diagnostic]:
    """Scan every source file of ``packages`` for determinism hazards."""
    files: List[str] = []
    for package in packages:
        files.extend(_package_files(package))
    return scan_files(files)


def determinism_hints(
    mismatched_tasks: Sequence[str],
    packages: Sequence[str] = DEFAULT_PACKAGES,
) -> Tuple[List[Diagnostic], str]:
    """Lint hits formatted as likely culprits for a parity failure.

    Used by ``bench --check-parity``: when parallel results are not
    byte-identical to the serial reference, any wall-clock or unseeded
    random call in the scenario code paths is the first suspect.
    """
    findings = lint_determinism(packages)
    subject = (
        f"{len(mismatched_tasks)} task(s)" if mismatched_tasks else "parity"
    )
    if not findings:
        text = (
            f"determinism lint found no wall-clock or unseeded-random "
            f"calls that would explain the {subject} mismatch; the "
            "nondeterminism is elsewhere (e.g. environment-dependent "
            "state)."
        )
        return findings, text
    lines = [
        f"determinism lint flags these calls as likely culprits for "
        f"the {subject} mismatch:"
    ]
    lines.extend("  " + diag.render() for diag in findings)
    return findings, "\n".join(lines)
