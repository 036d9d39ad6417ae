"""Declarative module contracts for fpt-lint.

A :class:`ModuleContract` states, for one configuration section type,
everything the config analyzer needs to validate a config **without
instantiating the module**: the typed parameters (with defaults and
ranges), the input ports (names and multiplicities), the outputs the
instance will declare (possibly a function of its params), how the
instance is scheduled, and whether it is a sink.

:func:`standard_contracts` returns the contract registry for every
module in :func:`repro.modules.standard_registry`.  Contracts for user
modules can be registered alongside, or inferred from the module source
with :func:`repro.lint.implcheck.infer_contract` -- and
:mod:`repro.lint.implcheck` verifies, AST-wise, that each standard
module's ``init()`` agrees with the contract declared here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.config import InstanceSpec
from ..sysstat.metrics import NODE_METRICS

#: Parameter types a contract can declare.
PARAM_TYPES = ("int", "float", "bool", "str", "list")


@dataclass(frozen=True)
class ParamSpec:
    """One typed configuration parameter."""

    name: str
    type: str = "str"
    required: bool = False
    #: Documentation-only default (what the module uses when absent).
    default: Optional[str] = None
    #: Inclusive bounds for int/float params.
    min_value: Optional[float] = None
    max_value: Optional[float] = None
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
      ``trigger_after_updates(connection_count)`` get);
    * ``param`` -- the trigger count comes from the named int parameter.
    """

    kind: str
    updates: int = 0
    param: str = ""

    @classmethod
    def periodic(cls) -> "TriggerSpec":
        return cls("periodic")

    @classmethod
    def fixed(cls, updates: int) -> "TriggerSpec":
        return cls("fixed", updates=updates)

    @classmethod
    def per_connection(cls) -> "TriggerSpec":
        return cls("per_connection")

    @classmethod
    def from_param(cls, name: str) -> "TriggerSpec":
        return cls("param", param=name)


#: Units a cost term can be charged per.
COST_UNITS = ("trigger", "sample", "window")

#: Symbols a cost term may scale with.  Resolved per instance by the
#: cost model: ``window``/``slide``/``k``/``num_states``/``size`` from
#: the instance's parameters, ``n_inputs`` from its wired connections,
#: ``nodes`` from a ``nodes`` list parameter (hadoop_log), ``dim`` from
#: the metric-vector dimension (the sadc catalog size by default).
COST_SYMBOLS = (
    "window", "slide", "k", "num_states", "size", "n_inputs", "nodes", "dim",
)


@dataclass(frozen=True)
class CostTerm:
    """One work term of a module's declarative cost fact.

    ``us`` is the estimated CPU microseconds charged once per ``per``
    unit, multiplied by every symbol in ``scales``.  A term whose note
    names a ``bench/`` workload was read from that workload's traced
    stage table; the others are order-of-magnitude estimates (see
    :mod:`repro.lint.costmodel` for what the tests hold them to).

    * ``per="trigger"`` -- charged every time the instance fires;
    * ``per="sample"``  -- charged per incoming sample *element*
      (ibuffer batches are unpacked to their element rate);
    * ``per="window"``  -- charged per completed window round
      (element rate / slide).
    """

    us: float
    per: str = "trigger"
    scales: Tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        if self.per not in COST_UNITS:
            raise ValueError(
                f"cost term: bad unit {self.per!r} (choose from {COST_UNITS})"
            )
        for symbol in self.scales:
            if symbol not in COST_SYMBOLS:
                raise ValueError(
                    f"cost term: unknown scale symbol {symbol!r} "
                    f"(choose from {COST_SYMBOLS})"
                )


@dataclass(frozen=True)
class CostFact:
    """Declarative cost facts for one module type (FPT3xx inputs).

    * ``terms`` -- the work terms summed into the per-tick estimate;
    * ``per_node`` -- deployments instantiate one instance per
      monitored node; the cost model reads fleet size N off the count;
    * ``batch_param`` -- int parameter naming the output batch factor
      (ibuffer ``size``): outputs carry ``batch_param`` elements each
      and emit at ``1/batch_param`` of the input update rate;
    * ``window_recompute`` -- each completed window is recomputed from
      scratch (no incremental update); with ``slide < window`` the
      overlap is re-scanned every round, which FPT303 flags.
    """

    terms: Tuple[CostTerm, ...] = ()
    per_node: bool = False
    batch_param: Optional[str] = None
    window_recompute: bool = False


@dataclass(frozen=True)
class ModuleContract:
    """Everything fpt-lint knows about one module type."""

    type_name: str
    params: Tuple[ParamSpec, ...] = ()
    #: Named input ports.  Empty + ``accepts_any_inputs`` False +
    #: ``allows_inputs`` False means the module takes no inputs at all.
    inputs: Tuple[InputPortSpec, ...] = ()
    #: The module iterates ``ctx.inputs`` and accepts arbitrary names.
    accepts_any_inputs: bool = False
    #: At least one input connection must be wired (sinks, unions).
    requires_inputs: bool = False
    #: False for pure data sources that call ``require_no_inputs()``.
    allows_inputs: bool = True
    #: Statically known output names.
    outputs: Tuple[str, ...] = ()
    #: Resolver for param-dependent outputs (sadc metrics, hadoop_log
    #: nodes); receives the instance spec, returns the full output list.
    output_resolver: Optional[Callable[[InstanceSpec], List[str]]] = field(
        default=None, compare=False
    )
    #: Outputs cannot be statically enumerated at all (rare; disables
    #: wiring checks against this instance).
    opaque_outputs: bool = False
    trigger: Optional[TriggerSpec] = None
    #: Alarm/peer analyses: minimum distinct upstream connections.
    min_peers: Optional[int] = None
    #: Terminal consumer (reachability roots for dead-instance checks).
    sink: bool = False
    #: Cross-parameter validation hook: returns (param_name, message)
    #: pairs for violations that single-param ranges cannot express.
    check: Optional[
        Callable[[InstanceSpec, Dict[str, object]], List[Tuple[str, str]]]
    ] = field(default=None, compare=False)
    #: Parameters cannot be statically enumerated (the implementation
    #: reads them through computed names); disables unknown/missing
    #: parameter checks for instances of this type.
    opaque_params: bool = False
    #: Set for contracts produced by AST inference rather than declared.
    inferred: bool = False
    #: Declarative cost facts for the FPT3xx cost model; None means the
    #: type is free as far as the budget estimate is concerned.
    cost: Optional[CostFact] = field(default=None, compare=False)

    def param(self, name: str) -> Optional[ParamSpec]:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None

    def port(self, name: str) -> Optional[InputPortSpec]:
        for spec in self.inputs:
            if spec.name == name:
                return spec
        return None

    def outputs_for(self, spec: InstanceSpec) -> Optional[List[str]]:
        """Output names this instance will declare; None if unknowable."""
        if self.opaque_outputs:
            return None
        if self.output_resolver is not None:
            return self.output_resolver(spec)
        return list(self.outputs)


class ContractRegistry:
    """A type-name -> contract mapping mirroring the module registry."""

    def __init__(self) -> None:
        self._contracts: Dict[str, ModuleContract] = {}

    def register(self, contract: ModuleContract) -> ModuleContract:
        self._contracts[contract.type_name] = contract
        return contract

    def get(self, type_name: str) -> Optional[ModuleContract]:
        return self._contracts.get(type_name)

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._contracts

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._contracts))

    def __len__(self) -> int:
        return len(self._contracts)

    def copy(self) -> "ContractRegistry":
        clone = ContractRegistry()
        clone._contracts = dict(self._contracts)
        return clone


def _split_list(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _sadc_outputs(spec: InstanceSpec) -> List[str]:
    return ["vector"] + _split_list(spec.params.get("metrics", ""))


def _hadoop_log_outputs(spec: InstanceSpec) -> List[str]:
    return _split_list(spec.params.get("nodes", ""))


def _check_hadoop_log(
    spec: InstanceSpec, params: Dict[str, object]
) -> List[Tuple[str, str]]:
    if not _split_list(spec.params.get("nodes", "")):
        return [("nodes", "'nodes' must name at least one node")]
    return []


def _check_ibuffer(
    spec: InstanceSpec, params: Dict[str, object]
) -> List[Tuple[str, str]]:
    size = params.get("size", 10)
    slide = params.get("slide", size)
    if (
        isinstance(size, int)
        and isinstance(slide, int)
        and slide > size
    ):
        return [("slide", f"slide ({slide}) must be <= size ({size})")]
    return []


def _interval_params() -> Tuple[ParamSpec, ...]:
    return (
        ParamSpec("interval", "float", default="1.0", positive=True),
        ParamSpec("phase", "float", default="0.0", min_value=0.0),
    )


def _peer_comparison_contract(
    type_name: str, own_params: Tuple[ParamSpec, ...], consecutive: str,
    terms: Tuple[CostTerm, ...],
) -> ModuleContract:
    """What ``PeerComparisonModule`` fixes for both detectors."""
    return ModuleContract(
        type_name=type_name,
        params=own_params + (
            ParamSpec("window", "int", default="60", min_value=1),
            ParamSpec("slide", "int", default="window", min_value=1),
            ParamSpec("consecutive", "int", default=consecutive, min_value=1),
        ),
        accepts_any_inputs=True,
        requires_inputs=True,
        outputs=("alarms", "decisions", "stats"),
        trigger=TriggerSpec.per_connection(),
        min_peers=3,
        cost=CostFact(terms=terms, window_recompute=True),
    )


def standard_contracts() -> ContractRegistry:
    """Contracts for every module in the standard registry."""
    registry = ContractRegistry()

    registry.register(
        ModuleContract(
            type_name="sadc",
            params=(
                ParamSpec("node", "str", required=True),
                ParamSpec(
                    "metrics", "list", default="", choices=tuple(NODE_METRICS)
                ),
            )
            + _interval_params(),
            allows_inputs=False,
            outputs=("vector",),
            output_resolver=_sadc_outputs,
            trigger=TriggerSpec.periodic(),
            cost=CostFact(
                terms=(
                    # bench/ stage table, fleet50 traced passes of seeds
                    # 1-3 at 200 us/cu: modules.sadc + rpc.inproc_sadc +
                    # sysstat.collect read 18.8 / 19.2 / 18.8 us (median
                    # 18.8) with tracing's 15-22 % on top, so 15-16
                    # untraced (30 before the calls ran on plans, 53-55
                    # before the row crossed as one array); no per-metric term.
                    CostTerm(
                        16.0, "trigger",
                        note="fleet-pass row + round trip: stage table, 200 us/cu",
                    ),
                ),
                per_node=True,
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="hadoop_log",
            params=(
                ParamSpec("nodes", "list", required=True),
                ParamSpec(
                    "max_skew", "float", default="15.0", positive=True
                ),
            )
            + _interval_params(),
            allows_inputs=False,
            output_resolver=_hadoop_log_outputs,
            trigger=TriggerSpec.periodic(),
            check=_check_hadoop_log,
            cost=CostFact(
                terms=(
                    # Same passes: modules.hadoop_log + rpc.inproc_hl +
                    # hadoop.log_parse read 30.7 / 31.8 / 30.8 us (median
                    # 30.8), so 25-27 untraced (two daemons polled per
                    # node; 45 before the calls ran on plans, 87 before
                    # they streamed their counts over codec v2).
                    CostTerm(
                        27.0, "trigger", ("nodes",),
                        "per-node tt+dn collect: stage table, 200 us/cu",
                    ),
                ),
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="strace",
            params=(ParamSpec("node", "str", required=True),)
            + _interval_params(),
            allows_inputs=False,
            outputs=("counts",),
            trigger=TriggerSpec.periodic(),
            cost=CostFact(
                terms=(CostTerm(25.0, "trigger", note="syscall count scrape"),),
                per_node=True,
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="knn",
            params=(
                ParamSpec("k", "int", default="1", min_value=1),
                ParamSpec("model", "str", default="bb_model"),
            ),
            inputs=(InputPortSpec("input", max_connections=1),),
            outputs=("output0",),
            trigger=TriggerSpec.fixed(1),
            cost=CostFact(
                terms=(
                    CostTerm(
                        100.0, "sample",
                        note="small-array numpy call overhead per sample",
                    ),
                    CostTerm(0.2, "sample", ("dim",), "distance arithmetic"),
                ),
                per_node=True,
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="knnfleet",
            params=(
                ParamSpec("k", "int", default="1", min_value=1),
                ParamSpec("model", "str", default="bb_model"),
            ),
            accepts_any_inputs=True,
            requires_inputs=True,
            # One output per wired node, named after the node; the node
            # names come from upstream origins, which a static config
            # analysis cannot resolve.
            opaque_outputs=True,
            trigger=TriggerSpec.per_connection(),
            cost=CostFact(
                terms=(
                    CostTerm(1.5, "sample", note="amortized batched classify"),
                    CostTerm(0.02, "sample", ("dim",), "matrix arithmetic"),
                    # fleet50 stage table, PR 20 (seed 3, three traced runs):
                    # 4.46 us/sample at 200 us/cu less the terms above; was 3.0.
                    CostTerm(1.7, "trigger", ("n_inputs",), "backlog gather"),
                ),
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="ibuffer",
            params=(
                ParamSpec("size", "int", default="10", min_value=1),
                ParamSpec("slide", "int", default="size", min_value=1),
            ),
            inputs=(InputPortSpec("input", max_connections=1),),
            outputs=("output0",),
            trigger=TriggerSpec.fixed(1),
            check=_check_ibuffer,
            cost=CostFact(
                # Same runs: 1.7 us emitting every sample (replay25_sliding),
                # 0.95 in batches of 5 (fleet50); the dearer one.  Was 4.0.
                terms=(CostTerm(1.7, "sample", note="buffer append + emit"),),
                per_node=True,
                batch_param="size",
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="mavgvec",
            params=(
                ParamSpec("window", "int", default="60", min_value=1),
                ParamSpec("slide", "int", default="window", min_value=1),
            ),
            inputs=(InputPortSpec("input"),),
            outputs=("mean", "var"),
            trigger=TriggerSpec.per_connection(),
            cost=CostFact(
                terms=(
                    CostTerm(5.0, "trigger", note="ring-buffer append"),
                    CostTerm(10.0, "window", note="mean/var reduction setup"),
                    CostTerm(
                        0.02, "window", ("window", "dim"),
                        "full-window rescan",
                    ),
                ),
                window_recompute=True,
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="threshold_alarm",
            params=(
                ParamSpec("bound", "float", required=True),
                ParamSpec(
                    "direction", "str", default="above",
                    choices=("above", "below"),
                ),
                ParamSpec("consecutive", "int", default="1", min_value=1),
                ParamSpec(
                    "reduce", "str", default="max",
                    choices=("max", "min", "mean"),
                ),
            ),
            inputs=(InputPortSpec("m", max_connections=1),),
            outputs=("alarms",),
            trigger=TriggerSpec.fixed(1),
            cost=CostFact(
                terms=(CostTerm(6.0, "sample", note="bound compare + streak"),),
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="syscall_anomaly",
            params=(
                ParamSpec("window", "int", default="60", min_value=1),
                ParamSpec("slide", "int", default="window", min_value=1),
                ParamSpec(
                    "baseline_windows", "int", default="3", min_value=1
                ),
                ParamSpec(
                    "threshold", "float", default="0.15", min_value=0.0
                ),
            ),
            inputs=(InputPortSpec("s", max_connections=1),),
            outputs=("alarms", "divergence"),
            trigger=TriggerSpec.fixed(1),
            cost=CostFact(
                terms=(
                    CostTerm(4.0, "sample", note="count accumulation"),
                    CostTerm(
                        0.5, "window", ("window",),
                        "histogram divergence over the window",
                    ),
                    CostTerm(30.0, "window", note="baseline comparison"),
                ),
                window_recompute=True,
            ),
        )
    )
    # bench/ stage table, PR 18 traced passes (seed 3) at 200 us/cu,
    # tracing's ~10 % off.  fleet50 (50 peers, a round a minute) is all
    # appends: analysis_bb 1.36 / _wb 1.89 us/sample at 310 us/cu = 0.9 /
    # 1.2.  replay25_sliding (25 peers, a round a second, 75 "samples" a
    # tick) at 262 us/cu: bb 2.89 us x 75 = 149 us a tick, 115 the round;
    # wb 3.02 x 75 = 156, 125 the round; one round timed at 25 and 100
    # peers splits both about half fixed, half per-peer.  PR 20 (cheaper
    # writes) reads 43 / 61 and 128 / 137 us a tick: the terms stay.
    registry.register(
        _peer_comparison_contract(
            "analysis_bb",
            (
                ParamSpec("threshold", "float", required=True, min_value=0.0),
                ParamSpec("num_states", "int", required=True, min_value=1),
            ),
            consecutive="3",
            terms=(
                CostTerm(0.9, "sample", note="ring write: fleet50 stage table"),
                CostTerm(60.0, "window", note="round, fixed: replay25_sliding"),
                CostTerm(2.2, "window", ("n_inputs",), "round, per peer: same"),
            ),
        )
    )
    registry.register(
        _peer_comparison_contract(
            "analysis_wb",
            (ParamSpec("k", "float", default="3.0", positive=True),),
            consecutive="2",
            terms=(
                CostTerm(1.2, "sample", note="ring write: fleet50 stage table"),
                CostTerm(60.0, "window", note="round, fixed: replay25_sliding"),
                CostTerm(2.6, "window", ("n_inputs",), "round, per peer: same"),
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="alarm_union",
            accepts_any_inputs=True,
            requires_inputs=True,
            outputs=("alarms",),
            trigger=TriggerSpec.fixed(1),
            cost=CostFact(
                terms=(
                    CostTerm(3.0, "trigger", note="merge dispatch"),
                    CostTerm(0.5, "trigger", ("n_inputs",), "per-source scan"),
                ),
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="print",
            params=(
                ParamSpec("quiet", "bool", default="true"),
                ParamSpec("prefix", "str", default="<instance id>"),
            ),
            accepts_any_inputs=True,
            requires_inputs=True,
            trigger=TriggerSpec.fixed(1),
            sink=True,
            cost=CostFact(
                terms=(CostTerm(1.0, "sample", note="format + swallow"),),
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="scoreboard",
            params=(
                ParamSpec("service", "str", default="observatory"),
            ),
            accepts_any_inputs=True,
            requires_inputs=True,
            trigger=TriggerSpec.fixed(1),
            sink=True,
            cost=CostFact(
                terms=(CostTerm(3.0, "sample", note="scoreboard ingest"),),
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="csv_writer",
            params=(ParamSpec("path", "str", required=True),),
            accepts_any_inputs=True,
            requires_inputs=True,
            trigger=TriggerSpec.fixed(1),
            sink=True,
            cost=CostFact(
                terms=(CostTerm(4.0, "sample", note="row format + write"),),
            ),
        )
    )
    registry.register(
        ModuleContract(
            type_name="mitigate",
            params=(
                ParamSpec(
                    "controller", "str", default="mitigation_controller"
                ),
                ParamSpec("min_alarms", "int", default="2", min_value=1),
            ),
            accepts_any_inputs=True,
            requires_inputs=True,
            outputs=("actions",),
            trigger=TriggerSpec.fixed(1),
            sink=True,
            cost=CostFact(
                terms=(CostTerm(3.0, "sample", note="alarm triage + action"),),
            ),
        )
    )
    return registry


def parse_param_value(spec: ParamSpec, raw: str):
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
        return _split_list(raw)
    return raw


__all__ = [
    "COST_SYMBOLS",
    "COST_UNITS",
    "ContractRegistry",
    "CostFact",
    "CostTerm",
    "InputPortSpec",
    "ModuleContract",
    "PARAM_TYPES",
    "ParamSpec",
    "TriggerSpec",
    "parse_param_value",
    "standard_contracts",
]
