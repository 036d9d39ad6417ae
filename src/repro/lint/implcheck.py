"""AST verification that module implementations match their contracts.

The contract registry (:mod:`repro.lint.contracts`) *declares* what each
module type consumes and produces; this module walks the actual class
source with :mod:`ast` and checks the two agree -- every
``ctx.create_output(...)``, ``ctx.input(...)`` and ``ctx.param_*(...)``
call is compared against the declaration (FPT10x codes).  The same
scanner powers :func:`infer_contract`, which builds a usable contract
for user modules that never declared one, so ``repro lint`` can check
configs wiring custom module types (e.g. the examples') too.

Only literal string arguments can be checked; computed names mark the
corresponding facet of the module as dynamic and exempt it.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Type

from ..core.module import Module
from ..core.registry import ModuleRegistry
from .contracts import (
    ContractRegistry,
    InputPortSpec,
    ModuleContract,
    ParamSpec,
    TriggerSpec,
    standard_contracts,
)
from .diagnostics import Diagnostic, sort_diagnostics

#: param accessor method -> declared type it implies.
_PARAM_ACCESSORS = {
    "param_int": "int",
    "param_float": "float",
    "param_bool": "bool",
    "param_str": "str",
    "param_list": "list",
}


@dataclass
class ApiScan:
    """Everything one module class's source says about the plug-in API."""

    class_name: str
    file: str = "<source>"
    #: output name -> first line creating it; dynamic names set the flag.
    outputs: Dict[str, int] = field(default_factory=dict)
    dynamic_outputs: bool = False
    #: param name -> (accessor types used, first line, has_default).
    params: Dict[str, "tuple[Set[str], int, bool]"] = field(
        default_factory=dict
    )
    dynamic_params: bool = False
    #: input port name -> first line reading it.
    inputs: Dict[str, int] = field(default_factory=dict)
    dynamic_inputs: bool = False
    reads_all_inputs: bool = False  # iterates ctx.inputs directly
    forbids_inputs: bool = False  # calls require_no_inputs()
    periodic: bool = False  # calls schedule_every(...)
    #: constant passed to trigger_after_updates, if constant.
    trigger_updates: Optional[int] = None
    #: trigger_after_updates called with a non-constant expression.
    dynamic_trigger: bool = False


class _ApiVisitor(ast.NodeVisitor):
    def __init__(self, scan: ApiScan, line_offset: Optional[int]) -> None:
        self.scan = scan
        #: ``None`` for a base class outside ``scan.file``: its lines read 0.
        self.offset = line_offset

    def _line(self, node: ast.AST) -> int:
        if self.offset is None:
            return 0
        return getattr(node, "lineno", 1) + self.offset

    @staticmethod
    def _literal(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # ``ctx.inputs`` / ``self.ctx.inputs`` read outside of a call:
        # the module walks arbitrary input groups.
        if node.attr == "inputs" and isinstance(node.value, (ast.Name, ast.Attribute)):
            base = node.value.attr if isinstance(node.value, ast.Attribute) else node.value.id
            if base == "ctx":
                self.scan.reads_all_inputs = True
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            method = func.attr
            if method == "create_output":
                name = self._literal(node.args[0]) if node.args else None
                if name is None:
                    self.scan.dynamic_outputs = True
                else:
                    self.scan.outputs.setdefault(name, self._line(node))
            elif method in _PARAM_ACCESSORS:
                name = self._literal(node.args[0]) if node.args else None
                if name is None:
                    self.scan.dynamic_params = True
                else:
                    has_default = len(node.args) > 1 or any(
                        kw.arg == "default" for kw in node.keywords
                    )
                    types, line, had_default = self.scan.params.get(
                        name, (set(), self._line(node), has_default)
                    )
                    types.add(_PARAM_ACCESSORS[method])
                    self.scan.params[name] = (
                        types,
                        line,
                        had_default or has_default,
                    )
            elif method == "input":
                name = self._literal(node.args[0]) if node.args else None
                if name is None:
                    self.scan.dynamic_inputs = True
                else:
                    self.scan.inputs.setdefault(name, self._line(node))
            elif method == "require_no_inputs":
                self.scan.forbids_inputs = True
            elif method == "schedule_every":
                self.scan.periodic = True
            elif method == "trigger_after_updates":
                arg = node.args[0] if node.args else None
                if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                    self.scan.trigger_updates = arg.value
                else:
                    self.scan.dynamic_trigger = True
        self.generic_visit(node)


def effective_class_bodies(module_class: Type[Module]):
    """The code a module class runs with, own and inherited: per class
    of the MRO up to (not including) :class:`Module`, ``(body statements,
    source file, line offset)``, a method that a nearer class defines
    left out.  Raises ``OSError`` / ``TypeError`` when a class on the way
    has no retrievable source (REPL class, C extension).
    """
    defined: Set[str] = set()
    for klass in module_class.__mro__:
        if klass is Module or klass is object:
            return
        source, start_line = inspect.getsourcelines(klass)
        file = inspect.getsourcefile(klass) or "<source>"
        class_node = ast.parse(textwrap.dedent("".join(source))).body[0]
        body: List[ast.stmt] = []
        for statement in class_node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if statement.name in defined:
                    continue
                defined.add(statement.name)
            body.append(statement)
        yield body, file, start_line - 1


def scan_module_class(module_class: Type[Module]) -> ApiScan:
    """Parse the class source -- inherited ``init``/``run`` included, see
    :func:`effective_class_bodies` -- and collect its plug-in API usage."""
    scan = ApiScan(class_name=module_class.__name__)
    try:
        bodies = list(effective_class_bodies(module_class))
    except (OSError, TypeError):
        # No retrievable source: scan nothing and treat every facet as
        # dynamic so no false mismatch fires.
        scan.dynamic_outputs = True
        scan.dynamic_params = True
        scan.dynamic_inputs = True
        return scan
    if bodies:
        scan.file = bodies[0][1]
    for body, file, offset in bodies:
        visitor = _ApiVisitor(scan, offset if file == scan.file else None)
        for statement in body:
            visitor.visit(statement)
    return scan


def infer_contract(module_class: Type[Module]) -> ModuleContract:
    """Build a usable contract for an undeclared module type via AST.

    Literal ``create_output`` / ``param_*`` / ``input`` calls become the
    declaration; computed names mark the facet opaque so the analyzer
    skips checks it cannot decide.
    """
    scan = scan_module_class(module_class)
    params = tuple(
        ParamSpec(
            name=name,
            type=sorted(types)[0] if types else "str",
            required=not has_default,
        )
        for name, (types, _, has_default) in sorted(scan.params.items())
    )
    trigger: Optional[TriggerSpec] = None
    if scan.periodic:
        trigger = TriggerSpec.periodic()
    elif scan.trigger_updates is not None:
        trigger = TriggerSpec.fixed(scan.trigger_updates)
    elif scan.dynamic_trigger:
        trigger = TriggerSpec.per_connection()
    return ModuleContract(
        type_name=module_class.type_name,
        params=params,
        inputs=tuple(
            InputPortSpec(name) for name in sorted(scan.inputs)
        ),
        accepts_any_inputs=scan.reads_all_inputs or scan.dynamic_inputs,
        allows_inputs=not scan.forbids_inputs,
        outputs=tuple(sorted(scan.outputs)),
        opaque_outputs=scan.dynamic_outputs,
        opaque_params=scan.dynamic_params,
        trigger=trigger,
        inferred=True,
    )


def contracts_for_registry(
    registry: ModuleRegistry,
    base: Optional[ContractRegistry] = None,
) -> ContractRegistry:
    """Declared contracts where available, inferred ones everywhere else."""
    contracts = (base if base is not None else standard_contracts()).copy()
    for type_name in registry:
        if type_name not in contracts:
            contracts.register(infer_contract(registry.resolve(type_name)))
    return contracts


def check_implementation(
    module_class: Type[Module], contract: ModuleContract
) -> List[Diagnostic]:
    """Compare one class's API usage against its declared contract."""
    scan = scan_module_class(module_class)
    file = scan.file
    diagnostics: List[Diagnostic] = []

    def emit(code: str, message: str, line: int = 0) -> None:
        diagnostics.append(
            Diagnostic(
                code=code,
                message=message,
                line=line,
                file=file,
                instance=contract.type_name,
            )
        )

    # -- params -------------------------------------------------------------
    if not contract.opaque_params:
        for name, (types, line, _) in sorted(scan.params.items()):
            declared = contract.param(name)
            if declared is None:
                emit(
                    "FPT101",
                    f"{scan.class_name} reads parameter '{name}' which the "
                    f"contract does not declare",
                    line,
                )
            elif declared.type not in types:
                emit(
                    "FPT106",
                    f"{scan.class_name} reads parameter '{name}' as "
                    f"{sorted(types)} but the contract declares "
                    f"'{declared.type}'",
                    line,
                )
        if not scan.dynamic_params:
            for declared in contract.params:
                if declared.name not in scan.params:
                    emit(
                        "FPT102",
                        f"contract declares parameter '{declared.name}' "
                        f"but {scan.class_name} never reads it",
                    )

    # -- outputs ------------------------------------------------------------
    static_outputs = contract.output_resolver is None and not contract.opaque_outputs
    if static_outputs:
        for name, line in sorted(scan.outputs.items()):
            if name not in contract.outputs:
                emit(
                    "FPT103",
                    f"{scan.class_name} creates output '{name}' which the "
                    f"contract does not declare (declared: "
                    f"{sorted(contract.outputs)})",
                    line,
                )
        if not scan.dynamic_outputs:
            for name in contract.outputs:
                if name not in scan.outputs:
                    emit(
                        "FPT104",
                        f"contract declares output '{name}' but "
                        f"{scan.class_name} never creates it",
                    )

    # -- inputs -------------------------------------------------------------
    if not contract.accepts_any_inputs:
        for name, line in sorted(scan.inputs.items()):
            if not contract.allows_inputs:
                emit(
                    "FPT105",
                    f"{scan.class_name} reads input '{name}' but the "
                    "contract declares the module takes no inputs",
                    line,
                )
            elif contract.port(name) is None:
                emit(
                    "FPT105",
                    f"{scan.class_name} reads input '{name}' which the "
                    f"contract does not declare (ports: "
                    f"{sorted(p.name for p in contract.inputs)})",
                    line,
                )
    return diagnostics


def check_registry(
    registry: Optional[ModuleRegistry] = None,
    contracts: Optional[ContractRegistry] = None,
) -> List[Diagnostic]:
    """Check every registered module class against its declared contract.

    Inferred contracts are skipped -- they are derived from the very
    source being checked, so they match by construction.
    """
    if registry is None:
        from ..modules import standard_registry

        registry = standard_registry()
    if contracts is None:
        contracts = standard_contracts()
    diagnostics: List[Diagnostic] = []
    for type_name in registry:
        contract = contracts.get(type_name)
        if contract is None or contract.inferred:
            continue
        diagnostics.extend(
            check_implementation(registry.resolve(type_name), contract)
        )
    return sort_diagnostics(diagnostics)
