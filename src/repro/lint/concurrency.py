"""Concurrency lint for the threaded deployment code (FPT401).

The cluster-mode daemons are deliberately thread-light -- one poll loop
per process plus daemon threads for RPC and ops HTTP serving -- but that
still leaves shared state touched from multiple threads.  This lint
builds a *thread-entry-point graph* over the scanned packages and flags
**FPT401**: a ``self.<attr>`` write, outside ``__init__``, without a
held lock, to an attribute that is also touched from another thread
domain.  Thread domains per class are *owner* (the constructing thread:
``__init__`` plus public methods) and *service* (handler threads:
``rpc_*`` dispatch methods, ``do_GET``/``do_POST``/``handle`` HTTP/socket
handlers, ``threading.Thread`` targets -- bound methods *and*
module-level functions like the node host's ``_sampler_loop`` -- and
``run()`` methods of Thread subclasses, plus everything transitively
reachable from those seeds through method calls: a seeded sampler loop
marks ``FleetLoad.advance_to`` and ``ClusterNodeDaemon.buffer_sample``
service-reachable, so writes the pipelined poller's owner thread also
touches are checked).  A write counts as locked inside a ``with`` block
whose context expression names a lock.

Reachability is propagated by *name*: a service-reachable method's
``obj.method()`` calls mark same-named methods of every scanned class,
and bare ``function()`` calls mark same-named module-level functions
(never builtins -- only names defined in the scanned files propagate).
That is intentionally conservative in both directions, so every
suppression must carry a justification comment::

    self._stats = stats  # fpt: noqa[FPT401] -- atomic reference swap

Mutating *calls* (``.append``, ``.put``) are not writes: grow-only /
queue-mediated designs are the sanctioned pattern here, and Python's
GIL makes the single bytecode op atomic.  The lint targets compound
read-modify-write (``+=``) and rebinding races.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic, apply_noqa, package_sources, sort_diagnostics

#: Packages whose code runs threaded in cluster deployments.
DEFAULT_PACKAGES = (
    "repro.cluster", "repro.rpc", "repro.obsv", "repro.telemetry",
)

#: Method names that run on service (non-owner) threads.
_SEED_PREFIXES = ("rpc_", "do_")
_SEED_NAMES = {"handle", "handle_one_request", "serve_forever"}

#: An identifier counts as a lock when its name says so.
def _is_lockish(name: str) -> bool:
    lowered = name.lower()
    return "lock" in lowered or "mutex" in lowered or "cond" in lowered


def _identifier_leaves(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``X`` (one level only; ``self.a.b`` is not a write
    to ``self.a``)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass
class _Method:
    name: str
    #: (attr, line, locked) for each ``self.X = ...`` / ``self.X op= ...``.
    writes: List[Tuple[str, int, bool]] = field(default_factory=list)
    #: Every self attribute read or written.
    touches: Set[str] = field(default_factory=set)
    #: ``self.X(...)`` call targets.
    self_calls: Set[str] = field(default_factory=set)
    #: ``obj.X(...)`` call leaf names (cross-class propagation).
    attr_calls: Set[str] = field(default_factory=set)
    #: Bare ``X(...)`` call names (module-function propagation).
    bare_calls: Set[str] = field(default_factory=set)
    #: Module functions only: True when this is a service-thread entry
    #: (a ``Thread(target=...)`` or a seed-named function).
    seed: bool = False


@dataclass
class _Class:
    name: str
    file: str
    line: int = 0
    bases: Tuple[str, ...] = ()
    methods: Dict[str, _Method] = field(default_factory=dict)
    #: Service-thread entry methods (seeds for reachability).
    seeds: Set[str] = field(default_factory=set)


class _MethodVisitor(ast.NodeVisitor):
    """Scans one method body into its :class:`_Method` summary."""

    def __init__(
        self,
        method: _Method,
        owner: Optional[_Class],
        classes: List[_Class],
        functions: Dict[str, _Method],
    ) -> None:
        self.method = method
        self.owner = owner
        self.classes = classes
        self.functions = functions
        self._lock_depth = 0

    # -- attribute accesses -------------------------------------------------

    def _note_write(self, target: ast.AST) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self.method.writes.append(
                (attr, getattr(target, "lineno", 0), self._lock_depth > 0)
            )
            self.method.touches.add(attr)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_write(element)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_write(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_write(node.target)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None:
            self.method.touches.add(attr)
        self.generic_visit(node)

    # -- calls --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            target = _self_attr(func.value)
            # self.X(...) where X is *not* itself an attribute of self.
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                self.method.self_calls.add(func.attr)
            else:
                self.method.attr_calls.add(func.attr)
            if target is not None:
                self.method.touches.add(target)
            self._check_thread_target(node, func.attr)
        elif isinstance(func, ast.Name):
            self.method.bare_calls.add(func.id)
            self._check_thread_target(node, func.id)
        self.generic_visit(node)

    def _check_thread_target(self, node: ast.Call, callee: str) -> None:
        """``Thread(target=self.X)`` makes X a service-thread seed."""
        if callee != "Thread":
            return
        for keyword in node.keywords:
            if keyword.arg != "target":
                continue
            attr = _self_attr(keyword.value)
            if attr is not None and self.owner is not None:
                self.owner.seeds.add(attr)
            elif isinstance(keyword.value, ast.Name):
                # Bare-name target: seed same-named methods of scanned
                # classes *and* the scanned module function (the node
                # host spawns its sampler as
                # ``Thread(target=_sampler_loop, ...)``).
                for cls in self.classes:
                    if keyword.value.id in cls.methods:
                        cls.seeds.add(keyword.value.id)
                if keyword.value.id in self.functions:
                    self.functions[keyword.value.id].seed = True

    # -- lock regions -------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Nested classes (connection handlers defined in __init__) are
        # scanned as their own class; their bodies are not this method's.
        return

    def visit_With(self, node: ast.With) -> None:
        lockish = any(
            any(_is_lockish(name) for name in _identifier_leaves(item.context_expr))
            for item in node.items
        )
        for item in node.items:
            self.visit(item.context_expr)
        if lockish:
            self._lock_depth += 1
        for statement in node.body:
            self.visit(statement)
        if lockish:
            self._lock_depth -= 1


def _scan_text(
    text: str, file: str
) -> Tuple[List[_Class], Dict[str, _Method], List[Diagnostic]]:
    """Parse one source file into class/function summaries (plus FPT000
    when it does not parse)."""
    try:
        tree = ast.parse(text)
    except SyntaxError as error:
        return [], {}, [
            Diagnostic(
                code="FPT000",
                message=f"cannot parse: {error.msg}",
                line=error.lineno or 0,
                file=file,
            )
        ]
    classes: List[_Class] = []
    functions: Dict[str, _Method] = {}

    class_nodes = [
        node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    nested_functions = {
        item for node in class_nodes for item in node.body
    }
    for node in class_nodes:
        bases = tuple(
            leaf for base in node.bases for leaf in _identifier_leaves(base)
        )
        cls = _Class(
            name=node.name, file=file, line=node.lineno, bases=bases
        )
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = _Method(name=item.name)
            cls.methods[item.name] = method
            if item.name in _SEED_NAMES or item.name.startswith(
                _SEED_PREFIXES
            ):
                cls.seeds.add(item.name)
            if item.name == "run" and any(
                "Thread" in base for base in cls.bases
            ):
                cls.seeds.add("run")
        classes.append(cls)

    # Module-level functions (thread targets, supervisor loops).
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node not in nested_functions:
            method = _Method(name=node.name)
            if node.name in _SEED_NAMES or node.name.startswith(
                _SEED_PREFIXES
            ):
                method.seed = True
            functions[node.name] = method

    # Populate bodies (second pass so Thread-target seeding can resolve
    # every class/function declared in the file).
    for node in class_nodes:
        cls = next(c for c in classes if c.line == node.lineno)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visitor = _MethodVisitor(
                    cls.methods[item.name], cls, classes, functions
                )
                for statement in item.body:
                    visitor.visit(statement)
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.name in functions:
            visitor = _MethodVisitor(
                functions[node.name], None, classes, functions
            )
            for statement in node.body:
                visitor.visit(statement)
    return classes, functions, []


def _service_reachable(
    classes: List[_Class], functions: Dict[str, _Method]
) -> Set[Tuple[int, str]]:
    """Fixpoint of service-thread reachability across all scanned code.

    A reachable method propagates through (a) its ``self.X()`` calls to
    methods of its own class, (b) its ``obj.X()`` calls to same-named
    methods of every scanned class, and (c) its bare ``X()`` calls to
    same-named scanned module functions.  Identity is ``(id(class),
    method)``; module functions use ``(0, name)``.
    """
    reachable: Set[Tuple[int, str]] = set()
    worklist: List[Tuple[Optional[_Class], _Method]] = []

    def mark(cls: Optional[_Class], method: _Method) -> None:
        key = (id(cls) if cls is not None else 0, method.name)
        if key not in reachable:
            reachable.add(key)
            worklist.append((cls, method))

    by_method_name: Dict[str, List[Tuple[_Class, _Method]]] = {}
    for cls in classes:
        for name, method in cls.methods.items():
            by_method_name.setdefault(name, []).append((cls, method))
    for cls in classes:
        for seed in cls.seeds:
            if seed in cls.methods:
                mark(cls, cls.methods[seed])
    for function in functions.values():
        if function.seed:
            mark(None, function)

    while worklist:
        cls, method = worklist.pop()
        if cls is not None:
            for name in method.self_calls:
                if name in cls.methods:
                    mark(cls, cls.methods[name])
        for name in method.attr_calls:
            for other, target in by_method_name.get(name, ()):
                mark(other, target)
        for name in method.bare_calls:
            if name in functions:
                mark(None, functions[name])
    return reachable


def _check_shared_writes(
    classes: List[_Class],
    reachable: Set[Tuple[int, str]],
    findings: List[Diagnostic],
) -> None:
    for cls in classes:
        service = {
            name for name in cls.methods if (id(cls), name) in reachable
        }
        if not service:
            continue
        # Owner entries: construction plus the public surface the owning
        # thread calls directly (service seeds excluded).
        owner_entries = {
            name
            for name in cls.methods
            if name in ("__init__", "init")
            or (not name.startswith("_") and name not in cls.seeds)
        }
        owner = set()
        frontier = list(owner_entries)
        while frontier:
            name = frontier.pop()
            if name in owner or name not in cls.methods:
                continue
            owner.add(name)
            frontier.extend(cls.methods[name].self_calls)
        touched_service = {
            attr
            for name in service
            for attr in cls.methods[name].touches
        }
        touched_owner = {
            attr
            for name in owner
            for attr in cls.methods[name].touches
        }
        shared = touched_service & touched_owner
        for name, method in cls.methods.items():
            if name in ("__init__", "init"):
                continue
            for attr, line, locked in method.writes:
                if locked or attr not in shared:
                    continue
                findings.append(
                    Diagnostic(
                        code="FPT401",
                        message=(
                            f"'self.{attr}' is written here without a "
                            "lock but is reachable from both the owner "
                            "thread and service threads "
                            f"(service entries: {sorted(cls.seeds) or 'inherited'})"
                        ),
                        line=line,
                        file=cls.file,
                        instance=f"{cls.name}.{name}",
                    )
                )


def scan_concurrency_sources(
    sources: Sequence[Tuple[str, str]], noqa: bool = True
) -> List[Diagnostic]:
    """Concurrency-lint ``(text, file)`` pairs as one thread graph.

    All sources are scanned before reachability is solved, so a handler
    in one file marks methods it calls in another file service-reachable.
    """
    all_classes: List[_Class] = []
    all_functions: Dict[str, _Method] = {}
    findings: List[Diagnostic] = []
    texts: Dict[str, str] = {}
    for text, file in sources:
        classes, functions, parse_errors = _scan_text(text, file)
        all_classes.extend(classes)
        all_functions.update(functions)
        findings.extend(parse_errors)
        texts[file] = text
    reachable = _service_reachable(all_classes, all_functions)
    _check_shared_writes(all_classes, reachable, findings)
    if noqa:
        kept: List[Diagnostic] = []
        for file, text in texts.items():
            kept.extend(
                apply_noqa(
                    [d for d in findings if d.file == file], text
                )
            )
        kept.extend(d for d in findings if d.file not in texts)
        findings = kept
    return sort_diagnostics(findings)


def scan_concurrency_source(
    text: str, file: str = "<source>", noqa: bool = True
) -> List[Diagnostic]:
    """Concurrency-lint a single source string (fixtures, tests)."""
    return scan_concurrency_sources([(text, file)], noqa=noqa)


def lint_concurrency(
    packages: Sequence[str] = DEFAULT_PACKAGES,
) -> List[Diagnostic]:
    """Concurrency-lint every source file of ``packages``."""
    return scan_concurrency_sources(package_sources(packages))


__all__ = [
    "DEFAULT_PACKAGES",
    "lint_concurrency",
    "scan_concurrency_source",
    "scan_concurrency_sources",
]
