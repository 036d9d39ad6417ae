"""``replay25_sliding``: analysis only, over a recorded flight archive.

Set-up records one faulty run with sliding windows (``slide=1``) into a
flight archive and loads it back.  A measured op is one replay: build a
core whose sources re-emit the archive (``replay_core``), step it one
simulated second at a time, and require every alarm sink to hold exactly
the alarms the recording delivered.  No simulator, no collection, no RPC
runs in the timed section.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Dict, List, Optional

from calib import Calibrator, stamp
from harness import (
    Repeat,
    GcWatch,
    modules_of,
    repeat_cost,
    scenario_seed,
    timed,
    wrap_modules,
)
from live import scenario_config, train_model
from spans import ROOT, SpanRecorder
from spec import repeats_for

from repro.analysis import fingerpointing_latency
from repro.experiments import ScenarioConfig, run_scenario
from repro.flightrec import (
    FlightRecorder,
    ReplayArchive,
    make_replay_registry,
    replay_core,
    run_replay,
)


class ReplayWorkload:
    def __init__(self, sizes: Dict[str, Any], seed: int, cal: Calibrator,
                 tmp_dir: str) -> None:
        self.sizes = sizes
        self.cal = cal
        self.archive_dir = os.path.join(tmp_dir, "archive")
        self.scenario = scenario_seed(sizes, seed)
        self.setup_problems: List[str] = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        sizes = self.sizes
        defaults = ScenarioConfig()
        # Sliding windows decide once a second instead of once a window;
        # the consecutive counts scale with window/slide so the run still
        # raises tens of alarms, not thousands.
        scale = sizes["window"] // sizes["slide"]
        config = scenario_config(
            dict(sizes, fast=True), self.scenario,
            window=sizes["window"], slide=sizes["slide"],
            ibuffer_size=sizes["ibuffer"],
            bb_consecutive=defaults.bb_consecutive * scale,
            wb_consecutive=defaults.wb_consecutive * scale,
        )
        self.model = train_model(config)
        self.cal.phase()
        shutil.rmtree(self.archive_dir, ignore_errors=True)
        # A replay reads the archive's records, not its incident bundles;
        # a bundle takes about 10 MB and their number follows the alarms,
        # so with them the peak RSS would vary by half between seeds.
        recorder = FlightRecorder(archive_dir=self.archive_dir, max_incidents=0)
        try:
            recorded = run_scenario(
                config, model=self.model, recorder=recorder,
                tick_callback=lambda _now: self.cal.maybe_slice(),
            )
        finally:
            recorder.close()
        self.truth = recorded.truth
        self.censored_delay = config.duration_s - config.inject_time

        started = time.perf_counter()
        self.archive = ReplayArchive.load(self.archive_dir)
        self.load_s = time.perf_counter() - started
        self.cal.phase()
        self.config_text = self.archive.manifest["config_text"]
        self.services = {"bb_model": self.model}
        self.end = int(self.archive.end_time()) + 1
        self.samples_per_replay = sum(
            1 for record in self.archive.records
            if (self.archive.outputs[record.output].get("origin") or {})
            .get("metric") == "node_vector"
        )
        # Warm-up replay; it also yields what every sink must receive.
        first = run_replay(self.archive, self.config_text, services=self.services)
        self.expected = first.expected
        if not first.all_match:
            self.setup_problems.append("warm-up replay differs from the recording")
        if fingerpointing_latency(
            self.expected.get("CombinedAlarm", []), self.truth
        ) is None:
            self.setup_problems.append(
                f"scenario {self.scenario}: {self.truth.faulty_node} never fingered"
            )
        first.core.close()
        self.cal.take_events()

    def close(self) -> None:
        shutil.rmtree(self.archive_dir, ignore_errors=True)

    # -- one repeat ----------------------------------------------------------

    def _replay_once(self, rec: Optional[SpanRecorder]) -> Any:
        """One op; returns the finished core for checking."""
        cal = self.cal
        if rec is not None:
            rec.begin(ROOT)
        started = stamp()
        # Building the core is dominated by the replay sources indexing
        # the archive, so the build is booked on their layer.
        core = timed(rec, "flightrec.replay_source", replay_core,
                     self.archive, self.config_text, None, self.services)
        built = stamp()
        if rec is not None:
            rec.end()
        cal.work("build", started, built)
        for second in range(1, self.end + 1):
            if rec is not None:
                rec.begin(ROOT)
            started = stamp()
            timed(rec, "core.sched", core.run_until, float(second))
            ended = stamp()
            if rec is not None:
                rec.end()
            cal.work("tick", started, ended)
            cal.maybe_slice()
        return core

    def run_repeat(self, budget_s: float, rec: Optional[SpanRecorder] = None,
                   max_ops: Optional[int] = None) -> Repeat:
        watch = GcWatch()
        attempted = failed = 0
        problems = list(self.setup_problems)
        quality: Dict[str, float] = {}
        counters: Dict[str, float] = {}
        signature = None
        self.cal.slice()
        loop_start = time.perf_counter()
        while attempted == 0 or (
            time.perf_counter() - loop_start < budget_s
            and (max_ops is None or attempted < max_ops)
        ):
            core = self._replay_once(rec)
            attempted += 1
            sinks = {m.instance_id: m.alarms for m in modules_of(core, "print")}
            wrong = [s for s, want in self.expected.items() if sinks.get(s) != want]
            if wrong:
                failed += 1
                problems.append(f"replay {attempted}: sinks {wrong} differ")
            if attempted == 1:
                combined = sinks.get("CombinedAlarm", [])
                delay = fingerpointing_latency(combined, self.truth)
                quality["detect_delay_sim_s"] = (
                    delay if delay is not None else self.censored_delay
                )
                signature = [(a.time, a.node, a.source) for a in combined]
                per = 1.0 / max(1, self.samples_per_replay)
                counters = {
                    "core.runs_per_sample": core.scheduler.total_runs * per,
                    "core.instances": float(len(core.instances)),
                    "modules.analysis_bb.rounds": float(sum(
                        m.rounds_processed for m in modules_of(core, "analysis_bb")
                    )),
                    "alarms.total": float(len(combined)),
                    "alarms.false": float(sum(
                        a.node != self.truth.faulty_node for a in combined
                    )),
                    "flightrec.archive_records": float(len(self.archive.records)),
                    "flightrec.archive_load_s": self.load_s,
                }
            core.close()
        repeat = watch.stop(Repeat(
            events=self.cal.take_events(),
            samples=attempted * self.samples_per_replay,
            attempted=attempted, failed=failed, scenario=self.scenario,
            problems=problems, quality=quality, counters=counters,
            signature=signature,
        ))
        if self.setup_problems:
            repeat.failed = repeat.attempted
        return repeat

    # -- passes --------------------------------------------------------------

    def measure(self, seconds: float, mode: str) -> List[Repeat]:
        count = repeats_for(self.sizes, seconds, mode)
        return [self.run_repeat(seconds / count) for _ in range(count)]

    def trace(self, seconds: float, rec: SpanRecorder):
        """Half the time untraced, then as many replays traced."""
        reference = self.run_repeat(seconds / 2)
        wrap_modules(rec, make_replay_registry())
        try:
            traced = self.run_repeat(seconds, rec=rec, max_ops=reference.attempted)
        finally:
            rec.restore()
        if reference.signature != traced.signature:
            traced.fail_all("alarms differ between the runs of one seed")
        overhead = repeat_cost(traced).cost_cu / repeat_cost(reference).cost_cu - 1.0
        return [reference], traced, {"trace.overhead_pct": 100.0 * overhead}
