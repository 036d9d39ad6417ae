"""End-to-end experiment scenarios: cluster + workload + fault + ASDF.

:func:`run_scenario` reproduces one run of the paper's evaluation: a
simulated Hadoop cluster executes a GridMix-like workload; one fault
from Table 2 is injected on one slave; ASDF monitors every slave online
(black-box sadc -> knnfleet -> analysis_bb, white-box hadoop_log ->
analysis_wb, combined via alarm union) and the run's alarms and
per-window decisions are scored against the ground truth.

The ASDF deployment is generated as a real fpt-core *configuration file*
(the same text format a production deployment would use -- see the
paper's Figure 3), then instantiated with in-process RPC channels to the
per-node daemons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.metrics import (
    Alarm,
    ConfusionCounts,
    GroundTruth,
    WindowDecision,
    fingerpointing_latency,
    score_decisions,
)
from ..core import FptCore, SimClock
from ..telemetry import Telemetry
from ..faults import FaultSpec, make_fault
from ..hadoop.cluster import ClusterConfig, HadoopCluster
from ..modules import (
    HADOOP_LOG_CHANNEL_SERVICE,
    SADC_CHANNEL_SERVICE,
    standard_registry,
)
from ..rpc.daemons import HadoopLogDaemon, SadcDaemon
from ..rpc.inproc import InprocChannel
from ..workloads.gridmix import GridMixConfig, generate_workload
from .model import (
    DEFAULT_NUM_STATES,
    BlackBoxModel,
    train_blackbox_model,
    training_inputs,
)


@dataclass
class ScenarioConfig:
    """One evaluation run's parameters (paper section 4.7 defaults)."""

    num_slaves: int = 10
    duration_s: float = 1200.0
    seed: int = 42

    # Fault injection (None -> fault-free run).
    fault_name: Optional[str] = None
    inject_time: float = 300.0
    clear_time: Optional[float] = None
    faulty_node: Optional[str] = None  # default: the middle slave

    # Analysis parameters.  The paper used windowSize 60 and picked the
    # thresholds from the Figure 6 fault-free sweeps (bb threshold 60,
    # wb k = 3 on their traces); the same sweep procedure on this
    # simulator's traces lands at bb threshold 65 and wb k = 2.
    window: int = 60
    slide: int = 60
    bb_threshold: float = 65.0
    bb_consecutive: int = 3
    num_states: int = DEFAULT_NUM_STATES
    wb_k: float = 2.0
    wb_consecutive: int = 2
    ibuffer_size: int = 5

    # Workload.
    mean_interarrival_s: float = 30.0
    workload_change_time_s: float = -1.0
    workload_change_factor: float = 1.0

    def workload_config(self) -> GridMixConfig:
        return GridMixConfig(
            duration_s=self.duration_s,
            mean_interarrival_s=self.mean_interarrival_s,
            seed=self.seed + 17,
            change_time_s=self.workload_change_time_s,
            change_rate_factor=self.workload_change_factor,
        )

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(num_slaves=self.num_slaves, seed=self.seed)

    def default_faulty_node(self, slave_names: List[str]) -> str:
        return slave_names[len(slave_names) // 2]


@dataclass
class AsdfHandles:
    """Access points into a deployed ASDF instance."""

    core: FptCore
    sadc_daemons: Dict[str, SadcDaemon]
    sadc_channels: Dict[str, InprocChannel]
    hl_tt_daemons: Dict[str, HadoopLogDaemon]
    hl_dn_daemons: Dict[str, HadoopLogDaemon]
    hl_tt_channels: Dict[str, InprocChannel]
    hl_dn_channels: Dict[str, InprocChannel]


def build_asdf_config_text(nodes: List[str], config: ScenarioConfig) -> str:
    """Render the full fpt-core configuration for a deployment.

    This is the analogue of the paper's Figure 3 file: sadc -> knnfleet
    -> ibuffer -> analysis_bb on the black-box side, hadoop_log ->
    analysis_wb on the white-box side, alarm sinks, and the union module
    implementing the combined fingerpointer.  The text is the same
    whether or not an observatory is attached: the ``print`` sinks feed
    it when it is.
    """
    # One instance per stage whatever the fleet size, wired node by node.
    lines: List[str] = [
        "[sadc]", "id = sadc", f"nodes = {','.join(nodes)}", "interval = 1.0", "",
        "[knnfleet]", "id = onenn", "model = bb_model", "k = 1",
    ]
    lines += [f"input[v{i}] = sadc.{node}" for i, node in enumerate(nodes)]
    lines += ["", "[ibuffer]", "id = buf"]
    lines += [f"input[input] = onenn.{node}" for node in nodes]
    lines += [f"size = {config.ibuffer_size}", ""]
    lines += ["[analysis_bb]", "id = analysis_bb"]
    lines += [
        f"threshold = {config.bb_threshold}",
        f"window = {config.window}",
        f"slide = {config.slide}",
        f"consecutive = {config.bb_consecutive}",
        f"num_states = {config.num_states}",
    ]
    lines += [f"input[l{i}] = buf.{node}" for i, node in enumerate(nodes)]
    lines += [
        "",
        "[hadoop_log]",
        "id = hl",
        f"nodes = {','.join(nodes)}",
        "interval = 1.0",
        "",
        "[analysis_wb]",
        "id = analysis_wb",
        f"k = {config.wb_k}",
        f"window = {config.window}",
        f"slide = {config.slide}",
        f"consecutive = {config.wb_consecutive}",
    ]
    lines += [f"input[n{i}] = hl.{node}" for i, node in enumerate(nodes)]
    lines += [
        "",
        "[alarm_union]",
        "id = combined",
        "input[a] = analysis_bb.alarms",
        "input[b] = analysis_wb.alarms",
        "",
        "[print]",
        "id = BlackBoxAlarm",
        "input[a] = analysis_bb.alarms",
        "input[d] = analysis_bb.decisions",
        "input[s] = analysis_bb.stats",
        "",
        "[print]",
        "id = WhiteBoxAlarm",
        "input[a] = analysis_wb.alarms",
        "input[d] = analysis_wb.decisions",
        "input[s] = analysis_wb.stats",
        "",
        "[print]",
        "id = CombinedAlarm",
        "input[a] = combined.alarms",
    ]
    return "\n".join(lines) + "\n"


def deploy_asdf(
    cluster: HadoopCluster,
    model: BlackBoxModel,
    config: ScenarioConfig,
    telemetry: Optional[Telemetry] = None,
    recorder=None,
    observatory=None,
) -> AsdfHandles:
    """Stand up daemons, channels and the fpt-core for a cluster.

    ``telemetry``, if given, instruments the whole deployment: the core's
    scheduler, every data channel and every RPC channel record into it.
    ``recorder``, a :class:`repro.flightrec.FlightRecorder`, taps every
    output of the deployed core and (when archiving) stamps the rendered
    configuration text into the archive manifest so the recorded run can
    be replayed without the original scenario code.
    ``observatory``, a :class:`repro.obsv.Observatory`, registers itself
    as the ``observatory`` service the ``print`` sinks hand their alarms
    and decisions to, and taps every output for sample->alarm latency
    tracing.  When the observatory brings its own
    telemetry and none was passed explicitly, that telemetry instruments
    the core so ``/metrics`` has run stats to serve.
    """
    if observatory is not None and telemetry is None:
        telemetry = observatory.telemetry
    nodes = cluster.slave_names
    sadc_daemons = {
        node: SadcDaemon(node, cluster.procfs(node)) for node in nodes
    }
    sadc_channels = {
        node: InprocChannel(
            sadc_daemons[node], f"sadc_rpcd@{node}", telemetry=telemetry
        )
        for node in nodes
    }
    hl_tt_daemons = {
        node: HadoopLogDaemon(node, cluster.tt_logs[node]) for node in nodes
    }
    hl_dn_daemons = {
        node: HadoopLogDaemon(node, cluster.dn_logs[node]) for node in nodes
    }
    hl_tt_channels = {
        node: InprocChannel(
            hl_tt_daemons[node], f"hl_tt_rpcd@{node}", telemetry=telemetry
        )
        for node in nodes
    }
    hl_dn_channels = {
        node: InprocChannel(
            hl_dn_daemons[node], f"hl_dn_rpcd@{node}", telemetry=telemetry
        )
        for node in nodes
    }
    services = {
        SADC_CHANNEL_SERVICE: sadc_channels,
        HADOOP_LOG_CHANNEL_SERVICE: {
            node: [hl_tt_channels[node], hl_dn_channels[node]] for node in nodes
        },
        "bb_model": model,
    }
    config_text = build_asdf_config_text(nodes, config)
    core = FptCore.from_config(
        config_text,
        standard_registry(),
        SimClock(),
        services=services,
        telemetry=telemetry,
    )
    if recorder is not None:
        core.set_flight_recorder(recorder)
        recorder.note_manifest(config_text=config_text, nodes=nodes)
    if observatory is not None:
        observatory.attach(core)
    return AsdfHandles(
        core=core,
        sadc_daemons=sadc_daemons,
        sadc_channels=sadc_channels,
        hl_tt_daemons=hl_tt_daemons,
        hl_dn_daemons=hl_dn_daemons,
        hl_tt_channels=hl_tt_channels,
        hl_dn_channels=hl_dn_channels,
    )


@dataclass
class ScenarioResult:
    """Everything one evaluation run produced."""

    config: ScenarioConfig
    truth: GroundTruth
    alarms_bb: List[Alarm]
    alarms_wb: List[Alarm]
    alarms_all: List[Alarm]
    decisions_bb: List[WindowDecision]
    decisions_wb: List[WindowDecision]
    decisions_all: List[WindowDecision]
    stats_bb: List[dict]
    stats_wb: List[dict]
    counts_bb: ConfusionCounts
    counts_wb: ConfusionCounts
    counts_all: ConfusionCounts
    latency_bb: Optional[float]
    latency_wb: Optional[float]
    latency_all: Optional[float]
    jobs_completed: int
    handles: Optional[AsdfHandles] = field(default=None, repr=False)


def merge_decisions(
    primary: List[WindowDecision], secondary: List[WindowDecision]
) -> List[WindowDecision]:
    """OR two detectors' decisions onto the primary's window grid.

    A primary node-window is alarmed in the combined view if it was
    alarmed itself or any overlapping secondary window for the same node
    was alarmed.
    """
    by_node: Dict[str, List[WindowDecision]] = {}
    for decision in secondary:
        by_node.setdefault(decision.node, []).append(decision)
    merged = []
    for decision in primary:
        alarmed = decision.alarmed
        if not alarmed:
            for other in by_node.get(decision.node, []):
                if (
                    other.alarmed
                    and other.window_start < decision.window_end
                    and other.window_end > decision.window_start
                ):
                    alarmed = True
                    break
        merged.append(
            WindowDecision(
                node=decision.node,
                window_start=decision.window_start,
                window_end=decision.window_end,
                alarmed=alarmed,
            )
        )
    return merged


def run_scenario(
    config: ScenarioConfig,
    model: Optional[BlackBoxModel] = None,
    keep_handles: bool = False,
    telemetry: Optional[Telemetry] = None,
    recorder=None,
    observatory=None,
    tick_callback=None,
) -> ScenarioResult:
    """Execute one full evaluation run and score it.

    ``observatory`` (a :class:`repro.obsv.Observatory`) turns on the
    diagnosis-observatory surfaces: the run's ground truth is registered
    with it before the run starts, and the ``print`` sinks hand it every
    alarm and decision they receive.
    ``tick_callback(cluster_time_s)``, if given, is invoked after every
    lock-step second -- the hook ``repro demo --top`` repaints from.
    """
    if model is None:
        model = train_blackbox_model(**training_inputs(config))

    cluster = HadoopCluster(config.cluster_config())
    for spec in generate_workload(config.workload_config()).jobs:
        cluster.schedule_job(spec)

    if config.fault_name is not None:
        faulty_node = config.faulty_node or config.default_faulty_node(
            cluster.slave_names
        )
        if faulty_node not in cluster.slave_names:
            raise ValueError(
                f"faulty_node {faulty_node!r} is not a slave of this "
                f"cluster (slaves: {', '.join(cluster.slave_names)})"
            )
        fault = make_fault(config.fault_name)
        fault_spec = FaultSpec(
            node=faulty_node,
            inject_time=config.inject_time,
            clear_time=config.clear_time,
        )
        fault.arm(cluster, fault_spec)
        truth = fault.ground_truth(fault_spec)
        fault_label = fault.name
    else:
        truth = GroundTruth(faulty_node=None)
        fault_label = None
    if observatory is not None:
        observatory.register_ground_truth(fault_label, truth)

    handles = deploy_asdf(
        cluster, model, config, telemetry=telemetry, recorder=recorder,
        observatory=observatory,
    )
    core = handles.core

    # Lock-step online operation: the cluster advances one second, then
    # the fpt-core catches up to the same simulated instant.
    while cluster.time < config.duration_s - 1e-9:
        cluster.step(1.0)
        core.run_until(cluster.time)
        if tick_callback is not None:
            tick_callback(cluster.time)

    def sink(name: str):
        return core.instance(name)

    bb_sink = sink("BlackBoxAlarm")
    wb_sink = sink("WhiteBoxAlarm")
    all_sink = sink("CombinedAlarm")

    alarms_bb = bb_sink.alarms
    alarms_wb = wb_sink.alarms
    alarms_all = all_sink.alarms
    decisions_bb = [
        d
        for s in bb_sink.received
        if isinstance(s.value, list)
        for d in s.value
        if isinstance(d, WindowDecision)
    ]
    decisions_wb = [
        d
        for s in wb_sink.received
        if isinstance(s.value, list)
        for d in s.value
        if isinstance(d, WindowDecision)
    ]
    stats_bb = [s.value for s in bb_sink.received if isinstance(s.value, dict)]
    stats_wb = [s.value for s in wb_sink.received if isinstance(s.value, dict)]
    decisions_all = merge_decisions(decisions_wb, decisions_bb)

    result = ScenarioResult(
        config=config,
        truth=truth,
        alarms_bb=alarms_bb,
        alarms_wb=alarms_wb,
        alarms_all=alarms_all,
        decisions_bb=decisions_bb,
        decisions_wb=decisions_wb,
        decisions_all=decisions_all,
        stats_bb=stats_bb,
        stats_wb=stats_wb,
        counts_bb=score_decisions(decisions_bb, truth),
        counts_wb=score_decisions(decisions_wb, truth),
        counts_all=score_decisions(decisions_all, truth),
        latency_bb=fingerpointing_latency(alarms_bb, truth),
        latency_wb=fingerpointing_latency(alarms_wb, truth),
        latency_all=fingerpointing_latency(alarms_all, truth),
        jobs_completed=cluster.jobs_completed(),
        handles=handles if keep_handles else None,
    )
    if not keep_handles:
        core.close()
    return result
