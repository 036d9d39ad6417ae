"""What a module class declares about itself, and the check fpt-core makes.

The paper's ``init()`` (section 3.2) reads a module's parameters and
verifies its wiring.  Every :class:`~repro.core.module.Module` subclass
states that interface once, as class attributes built from the types
here: the parameters it reads (:class:`ParamSpec`), its input ports
(:class:`InputPortSpec`), its outputs, how it is scheduled
(:class:`TriggerSpec`) and a cross-parameter rule.

:func:`repro.core.check.check_specs` checks every instance against the
whole declaration (:func:`check_params` is its parameter part) before any
``init()``, for fpt-core's builder and ``repro lint`` alike, and
``ModuleContext.param_*`` take each parameter's type and default from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, NamedTuple, Optional, Sequence, Tuple

#: Parameter types a declaration can name.
PARAM_TYPES = ("int", "float", "bool", "str", "list")


@dataclass(frozen=True)
class ParamSpec:
    """One typed configuration parameter."""

    name: str
    type: str = "str"
    required: bool = False
    #: The value used when the parameter is absent, written as in a
    #: config file.  A default that names another declared parameter
    #: takes that parameter's value (``slide`` defaults to ``window``).
    #: None: an absent parameter reads as None.
    default: Optional[str] = None
    #: Inclusive lower bound for int/float params.
    min_value: Optional[float] = None
    #: The value must be strictly positive (intervals, window widths).
    positive: bool = False
    #: Allowed values for str params / allowed items for list params.
    choices: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.type not in PARAM_TYPES:
            raise ValueError(
                f"param '{self.name}': bad type {self.type!r} "
                f"(choose from {PARAM_TYPES})"
            )


@dataclass(frozen=True)
class InputPortSpec:
    """One named input port (``input[name] = ...`` target)."""

    name: str
    required: bool = True
    #: Maximum wired connections (1 for ``.single()`` ports; None = any).
    max_connections: Optional[int] = None


@dataclass(frozen=True)
class TriggerSpec:
    """How the scheduler invokes the module.

    * ``periodic`` -- the module calls ``schedule_every`` (pollers);
    * ``fixed`` -- ``trigger_after_updates(updates)`` with a constant;
    * ``per_connection`` -- runs once every wired connection has a fresh
      sample (the scheduler default, and what modules that call
      ``trigger_after_updates(connection_count)`` get).
    """

    kind: str
    updates: int = 0

    @classmethod
    def periodic(cls) -> "TriggerSpec":
        return cls("periodic")

    @classmethod
    def fixed(cls, updates: int) -> "TriggerSpec":
        return cls("fixed", updates=updates)

    @classmethod
    def per_connection(cls) -> "TriggerSpec":
        return cls("per_connection")


#: The two parameters every ``schedule_every`` poller reads.
SCHEDULE_PARAMS = (
    ParamSpec("interval", "float", default="1.0", positive=True),
    ParamSpec("phase", "float", default="0.0", min_value=0.0),
)


class ParamProblem(NamedTuple):
    """One way an instance's params break its class's declaration."""

    #: FPT007 unknown, FPT008 wrong type, FPT009 out of range or a failed
    #: cross-param rule, FPT010 required and missing.
    code: str
    #: The parameter the problem is about (it locates the config line).
    param: str
    message: str


def parse_param_value(spec: ParamSpec, raw: str) -> Any:
    """Parse ``raw`` per the spec's type; raises ValueError on mismatch."""
    if spec.type == "int":
        return int(raw)
    if spec.type == "float":
        return float(raw)
    if spec.type == "bool":
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if spec.type == "list":
        return [item.strip() for item in raw.split(",") if item.strip()]
    return raw


def _declared(declared: Sequence[ParamSpec], name: str) -> Optional[ParamSpec]:
    return next((spec for spec in declared if spec.name == name), None)


def param_value(
    declared: Sequence[ParamSpec], params: Mapping[str, str], name: str
) -> Any:
    """The typed value of declared parameter ``name``: as given, else its
    default; None when it is absent with no default, or not declared.
    Raises ValueError when the text does not parse as the declared type.
    """
    spec = _declared(declared, name)
    if spec is None:
        return None
    if name in params:
        return parse_param_value(spec, params[name])
    if spec.default is None:
        return None
    if _declared(declared, spec.default) is not None:
        return param_value(declared, params, spec.default)
    return parse_param_value(spec, spec.default)


def _out_of_range(spec: ParamSpec, value: Any) -> Optional[str]:
    name = spec.name
    if spec.type in ("int", "float"):
        if spec.positive and value <= 0:
            return f"parameter '{name}' must be > 0, got {value}"
        if spec.min_value is not None and value < spec.min_value:
            return f"parameter '{name}' must be >= {spec.min_value:g}, got {value}"
    elif spec.choices is not None and spec.type == "str":
        if value not in spec.choices:
            return (
                f"parameter '{name}' must be one of "
                f"{sorted(spec.choices)}, got {value!r}"
            )
    elif spec.choices is not None and spec.type == "list":
        bad = [item for item in value if item not in spec.choices]
        if bad:
            return f"parameter '{name}' has unknown item(s) {bad}"
    return None


def check_params(module_class, params: Mapping[str, str]) -> List[ParamProblem]:
    """Every way ``params`` break ``module_class``'s declaration: unknown
    names first, then each declared parameter in turn, then the class's
    cross-param rule (run only when nothing else failed)."""
    declared = module_class.params
    problems = [
        ParamProblem(
            "FPT007", name,
            f"parameter '{name}' is not declared by [{module_class.type_name}] "
            f"(declared params: {sorted(spec.name for spec in declared)})",
        )
        for name in params
        if _declared(declared, name) is None
    ]
    for spec in declared:
        if spec.name not in params:
            if spec.required:
                problems.append(ParamProblem(
                    "FPT010", spec.name,
                    f"required parameter '{spec.name}' ({spec.type}) is missing",
                ))
            continue
        raw = params[spec.name]
        try:
            value = parse_param_value(spec, raw)
        except ValueError:
            problems.append(ParamProblem(
                "FPT008", spec.name,
                f"parameter '{spec.name}' must be {spec.type}, got {raw!r}",
            ))
            continue
        message = _out_of_range(spec, value)
        if message is not None:
            problems.append(ParamProblem("FPT009", spec.name, message))
    rule = module_class.param_check
    if not problems and rule is not None:
        values = {spec.name: param_value(declared, params, spec.name)
                  for spec in declared}
        problems.extend(
            ParamProblem("FPT009", name, message) for name, message in rule(values)
        )
    return problems


__all__ = [
    "InputPortSpec",
    "PARAM_TYPES",
    "ParamProblem",
    "ParamSpec",
    "SCHEDULE_PARAMS",
    "TriggerSpec",
    "check_params",
    "param_value",
    "parse_param_value",
]
