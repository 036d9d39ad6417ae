"""``fleet50`` and ``observed10``: the live hybrid DAG through ``run_scenario``.

The scenario loop belongs to ``src/``; the harness sees it only through
``tick_callback``, which fires after every lock-step second.  One tick is
therefore the time from one callback's return to the next callback's
entry (``cluster.step`` + ``core.run_until``).  The first second is not
timed: it carries the deployment's construction and the samplers'
priming call.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from typing import Any, Dict, List, Optional

from calib import Calibrator, Stamp, stamp
from harness import (
    Repeat,
    GcWatch,
    modules_of,
    repeat_cost,
    scenario_seed,
    wrap_modules,
)
from spans import ROOT, SpanRecorder
from spec import repeats_for

from repro.core import FptCore
from repro.experiments import ScenarioConfig, run_scenario, train_blackbox_model
from repro.flightrec import FlightRecorder
from repro.hadoop import ClusterConfig, HadoopCluster
from repro.modules import standard_registry
from repro.obsv import Observatory
from repro.rpc import HadoopLogDaemon, InprocChannel, SadcDaemon
from repro.telemetry import Telemetry

FAULT = "CPUHog"

#: The black-box model is trained on a cluster of at most this many
#: slaves (the paper's Table 2 unit).  Nodes behave alike, so a larger
#: fleet adds training time, not information, and a short set-up can be
#: repeated for a steady ``setup_s``.
TRAIN_SLAVES = 10

#: The flight recorder freezes an incident bundle per alarm (64 at most
#: by default), and their number follows the scenario: 3 to 21 here, at
#: 0.1 s and 2.5 MB of peak RSS each.  Capped at what every scenario
#: reaches, so that every run of ``observed10`` writes as many.
MAX_INCIDENTS = 2


def scenario_config(sizes: Dict[str, Any], seed: int, **overrides: Any) -> ScenarioConfig:
    """The workload's ``ScenarioConfig``; everything unnamed stays default."""
    values: Dict[str, Any] = dict(
        num_slaves=sizes["slaves"], duration_s=sizes["duration_s"], seed=seed,
        fault_name=FAULT, inject_time=sizes["inject_s"],
    )
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    if sizes.get("fast"):
        # The fast path is requested only while the fields still exist,
        # so collapsing the dual paths does not break the harness.
        fast = {"engine": "vec", "fleet_knn": True}
        values.update({k: v for k, v in fast.items() if k in known})
    values.update(overrides)
    return ScenarioConfig(**values)


def train_model(config: ScenarioConfig) -> Any:
    """The training ``run_scenario`` would do itself, hoisted into set-up."""
    cluster: Dict[str, Any] = dict(
        num_slaves=min(config.num_slaves, TRAIN_SLAVES), seed=config.seed + 1000
    )
    if "engine" in {f.name for f in dataclasses.fields(ClusterConfig)}:
        cluster["engine"] = getattr(config, "engine", "scalar")
    return train_blackbox_model(
        cluster_config=ClusterConfig(**cluster),
        duration_s=min(300.0, config.duration_s),
        num_states=config.num_states,
        seed=config.seed,
    )


def expected_culprit(nodes: List[str]) -> str:
    """The node the harness expects the fault on: the middle slave."""
    return nodes[len(nodes) // 2]


def alarm_signature(result: Any) -> List[tuple]:
    return [
        (alarm.time, alarm.node, alarm.source)
        for alarms in (result.alarms_bb, result.alarms_wb, result.alarms_all)
        for alarm in alarms
    ]


class TickLog:
    """Turns ``tick_callback`` calls into timed ticks and root spans."""

    def __init__(self, cal: Calibrator, rec: Optional[SpanRecorder]) -> None:
        self.cal = cal
        self.rec = rec
        self.ticks = 0
        self._start: Optional[Stamp] = None

    def on_tick(self, _sim_time: float) -> None:
        now = stamp()
        if self._start is not None:
            if self.rec is not None:
                self.rec.end()
            self.cal.work("tick", self._start, now)
            self.ticks += 1
            self.cal.maybe_slice()
        else:
            self.cal.slice()    # the first timed tick gets a fresh divisor
        if self.rec is not None:
            self.rec.begin(ROOT)
        self._start = stamp()

    def finish(self) -> None:
        if self.rec is not None:
            self.rec.abort_root()


def install_spans(rec: SpanRecorder) -> None:
    rec.wrap(HadoopCluster, "step", "sim.step")
    rec.wrap(FptCore, "run_until", "core.sched")
    wrap_modules(rec, standard_registry())

    def inproc_span(channel: Any) -> Optional[str]:
        if channel.service.startswith("sadc"):
            return "rpc.inproc_sadc"
        if channel.service.startswith("hl_"):
            return "rpc.inproc_hl"
        return None

    rec.wrap(InprocChannel, "call", inproc_span)
    rec.wrap(SadcDaemon, "rpc_sample", "sysstat.collect")
    rec.wrap(HadoopLogDaemon, "rpc_collect", "hadoop.log_parse")


def check_run(repeat: Repeat, result: Any, nodes: List[str], delivered: int) -> str:
    """Run-level checks; returns the culprit the harness expects."""
    if delivered != repeat.attempted:
        repeat.problems.append(
            f"{delivered} node-samples at the sinks, expected {repeat.attempted}"
        )
    culprit = expected_culprit(nodes)
    if result.truth.faulty_node != culprit:
        repeat.fail_all(
            f"fault sits on {result.truth.faulty_node}, expected {culprit}"
        )
    duration = result.config.duration_s
    stray = [a for a in result.alarms_all
             if a.node not in nodes or not 0.0 < a.time <= duration]
    if stray:
        repeat.fail_all(f"{len(stray)} alarms name no slave or no run time")
    if result.latency_all is None:
        repeat.fail_all(f"scenario {repeat.scenario}: {culprit} never fingered")
    return culprit


def run_counters(result: Any, culprit: str, delivered: int) -> Dict[str, float]:
    """The exact counters of one run, read off its handles afterwards."""
    handles = result.handles
    core = handles.core
    channels = [
        channel
        for group in (handles.sadc_channels, handles.hl_tt_channels,
                      handles.hl_dn_channels)
        for channel in group.values()
    ]
    log_stats = [
        daemon.rpc_stats()
        for group in (handles.hl_tt_daemons, handles.hl_dn_daemons)
        for daemon in group.values()
    ]
    per = 1.0 / max(1, delivered)
    return {
        "core.runs_per_sample": core.scheduler.total_runs * per,
        "core.instances": float(len(core.instances)),
        "rpc.calls_per_sample": sum(
            ch.counter.messages_sent - 1 for ch in channels  # less the hello
        ) * per,
        "rpc.tx_bytes_per_sample": sum(ch.counter.tx_wire for ch in channels) * per,
        "rpc.rx_bytes_per_sample": sum(ch.counter.rx_wire for ch in channels) * per,
        "rpc.static_bytes": float(sum(ch.counter.static_wire for ch in channels)),
        "modules.sadc.priming_skips": float(sum(
            m.priming_skips for m in modules_of(core, "sadc")
        )),
        "modules.analysis_bb.rounds": float(sum(
            m.rounds_processed for m in modules_of(core, "analysis_bb")
        )),
        "hadoop.log_lines_parsed": float(sum(s["lines_parsed"] for s in log_stats)),
        "hadoop.log_lines_skipped": float(sum(s["lines_skipped"] for s in log_stats)),
        "sim.jobs_completed": float(result.jobs_completed),
        "alarms.total": float(len(result.alarms_all)),
        "alarms.false": float(sum(a.node != culprit for a in result.alarms_all)),
    }


class LiveWorkload:
    def __init__(self, sizes: Dict[str, Any], seed: int, cal: Calibrator,
                 tmp_dir: str) -> None:
        self.sizes = sizes
        self.seed = seed
        self.cal = cal
        self.tmp_dir = tmp_dir
        #: scenario seed -> its black-box model
        self.models: Dict[int, Any] = {}

    # -- set-up --------------------------------------------------------------

    def model_for(self, scenario: int) -> Any:
        """The model ``run_scenario`` would train for this scenario itself."""
        if scenario not in self.models:
            self.models[scenario] = train_model(
                scenario_config(self.sizes, scenario)
            )
        return self.models[scenario]

    def setup(self) -> None:
        first = scenario_seed(self.sizes, self.seed)
        self.model_for(first)
        self.cal.phase()
        # Warm-up mini-run: same DAG, same taps, a few simulated seconds;
        # its record (nobody fingered yet) is dropped.
        self._run(first, None, self.sizes["observed"],
                  duration_s=self.sizes["warm_s"])

    def close(self) -> None:
        self.models.clear()

    # -- one repeat ----------------------------------------------------------

    def _run(self, seed: int, rec: Optional[SpanRecorder], observed: bool,
             **overrides: Any) -> Repeat:
        config = scenario_config(self.sizes, seed, **overrides)
        model = self.model_for(seed)
        observatory = recorder = archive_dir = None
        if observed:
            observatory = Observatory(Telemetry(trace=True))
            archive_dir = os.path.join(self.tmp_dir, f"flight-{seed}")
            recorder = FlightRecorder(
                archive_dir=archive_dir, max_incidents=MAX_INCIDENTS
            )
        log = TickLog(self.cal, rec)
        watch = GcWatch()
        try:
            result = run_scenario(
                config, model=model, keep_handles=True,
                observatory=observatory, recorder=recorder,
                tick_callback=log.on_tick,
            )
        finally:
            log.finish()
            if recorder is not None:
                recorder.close()
        events = self.cal.take_events()
        core = result.handles.core
        nodes = list(result.handles.sadc_daemons)
        delivered = sum(m.samples_collected for m in modules_of(core, "sadc"))
        # The untimed first second primes the samplers and takes one
        # sample; every timed tick delivers one more per node.
        attempted = len(nodes) * (log.ticks + 1)
        repeat = watch.stop(Repeat(
            events=events, samples=len(nodes) * log.ticks, attempted=attempted,
            failed=max(0, attempted - delivered), scenario=seed,
            signature=alarm_signature(result),
        ))
        culprit = check_run(repeat, result, nodes, delivered)
        repeat.counters = run_counters(result, culprit, delivered)
        repeat.quality = {
            # Censored at the observable maximum when never fingered.
            "detect_delay_sim_s": (
                result.latency_all if result.latency_all is not None
                else config.duration_s - config.inject_time
            ),
            "balanced_accuracy_pct": 100.0 * result.counts_all.balanced_accuracy,
            "wire_bytes_per_sample": (
                repeat.counters["rpc.tx_bytes_per_sample"]
                + repeat.counters["rpc.rx_bytes_per_sample"]
            ),
        }
        if observed:
            stats = recorder.stats()
            repeat.counters.update({
                "obs.trace_events": float(len(observatory.telemetry.tracer.events)),
                "obs.trace_dropped": float(observatory.telemetry.tracer.dropped),
                "obs.flightrec_recorded": float(stats["recorded"]),
                "obs.flightrec_evictions": float(stats["evictions"]),
            })
            shutil.rmtree(archive_dir, ignore_errors=True)
        core.close()
        return repeat

    def run_repeat(self, index: int, rec: Optional[SpanRecorder] = None,
                   observed: Optional[bool] = None) -> Repeat:
        """Repeat ``index`` runs the next scenario of the workload's seeds,
        so a run of several averages over inputs as well as host noise."""
        if observed is None:
            observed = self.sizes["observed"]
        return self._run(scenario_seed(self.sizes, self.seed, index), rec, observed)

    # -- passes --------------------------------------------------------------

    def measure(self, seconds: float, mode: str) -> List[Repeat]:
        count = repeats_for(self.sizes, seconds, mode)
        return [self.run_repeat(index) for index in range(count)]

    def trace(self, _seconds: float, rec: SpanRecorder):
        """Reference run(s) untraced, then the same seed traced.

        Returns ``(references, traced, derived)``.  The alarms of every
        run of the pass must be identical: tracing and tapping observe
        the pipeline, they must not steer it.
        """
        references = []
        derived: Dict[str, float] = {}
        if self.sizes["observed"]:
            references.append(self.run_repeat(0, observed=False))
        references.append(self.run_repeat(0))
        install_spans(rec)
        try:
            traced = self.run_repeat(0, rec=rec)
        finally:
            rec.restore()
        for reference in references:
            if reference.signature != traced.signature:
                traced.fail_all("alarms differ between the runs of one seed")
        plain = repeat_cost(references[-1])
        cost = repeat_cost(traced)
        derived["trace.overhead_pct"] = 100.0 * (cost.cost_cu / plain.cost_cu - 1.0)
        if self.sizes["observed"]:
            untapped = repeat_cost(references[0])
            iter_us = sorted(cost.cal_iter_us)[len(cost.cal_iter_us) // 2]
            derived["obs.taps.us"] = (plain.cost_cu - untapped.cost_cu) * iter_us
        return references, traced, derived
