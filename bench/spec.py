"""The benchmark's catalogue: workloads, metrics, sizes.  Plain data, no
imports beyond the standard library, so the parent process and the tests
can read it without loading numpy or the program.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch space of a run (flight archives, span and result files);
#: git-ignored.
OUT_DIR = os.path.join(REPO_ROOT, ".bench_out")

# -- catalogue ----------------------------------------------------------------

WORKLOADS = ("fleet50", "observed10", "replay25_sliding", "wire2")

#: name -> (unit, better, bound); what ``--trace 0`` prints last.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "norm_cost_per_sample": ("cu", "lower", 0.10),
    "norm_tick_p95": ("cu", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: Exact, seed-dependent results.  Not every workload has every one of
#: them, so they sit with the per-layer metrics (see README).
QUALITY: Dict[str, Tuple[str, str]] = {
    "detect_delay_sim_s": ("sim_s", "lower"),
    "balanced_accuracy_pct": ("%", "higher"),
    "wire_bytes_per_sample": ("B", "lower"),
}

SPANS = (
    "sim.step", "core.sched",
    "modules.sadc", "rpc.inproc_sadc", "sysstat.collect",
    "modules.hadoop_log", "rpc.inproc_hl", "hadoop.log_parse",
    "modules.knn", "modules.ibuffer", "modules.analysis_bb",
    "modules.analysis_wb", "modules.alarms",
    "flightrec.replay_source", "obs.taps",
    "rpc.poll_b1", "rpc.poll_b16", "rpc.codec_encode", "rpc.codec_decode",
    "cluster.load_advance", "rpc.daemon_buffer",
)

#: name -> (unit, better).  (t) in the README marks the timed ones.
COUNTERS: Dict[str, Tuple[str, str]] = {
    "core.runs_per_sample": ("count", "lower"),
    "core.instances": ("count", "lower"),
    "rpc.calls_per_sample": ("count", "lower"),
    "rpc.tx_bytes_per_sample": ("B", "lower"),
    "rpc.rx_bytes_per_sample": ("B", "lower"),
    "rpc.static_bytes": ("B", "lower"),
    "rpc.bytes_per_window_b1": ("B", "lower"),
    "rpc.bytes_per_window_b16": ("B", "lower"),
    "rpc.poll_errors": ("count", "lower"),
    "rpc.windows_dropped": ("count", "lower"),
    "rpc.rtt_us_p50": ("us", "lower"),
    "rpc.rtt_us_p95": ("us", "lower"),
    "rpc.connect_us": ("us", "lower"),
    "modules.sadc.priming_skips": ("count", "lower"),
    "modules.analysis_bb.rounds": ("count", "lower"),
    "hadoop.log_lines_parsed": ("count", "lower"),
    "hadoop.log_lines_skipped": ("count", "lower"),
    "sim.jobs_completed": ("count", "higher"),
    "alarms.total": ("count", "lower"),
    "alarms.false": ("count", "lower"),
    "obs.trace_events": ("count", "lower"),
    "obs.trace_dropped": ("count", "lower"),
    "obs.flightrec_recorded": ("count", "lower"),
    "obs.flightrec_evictions": ("count", "lower"),
    "flightrec.archive_records": ("count", "lower"),
    "flightrec.archive_load_s": ("s", "lower"),
    "host.wall_s": ("s", "lower"),
    "host.cpu_s": ("s", "lower"),
    "host.samples_per_s": ("1/s", "higher"),
    "host.cal_iter_us_p50": ("us", "lower"),
    "host.cal_iter_us_iqr": ("us", "lower"),
    "host.cal_share_pct": ("%", "lower"),
    "host.gc_gen2": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def per_layer_catalogue() -> Dict[str, Tuple[str, str]]:
    """Every name ``--trace 1`` prints last, with unit and direction."""
    out: Dict[str, Tuple[str, str]] = {}
    for span in SPANS:
        out[f"{span}.us"] = ("us", "lower")
        out[f"{span}.share"] = ("%", "lower")
    out.update(COUNTERS)
    out.update(QUALITY)
    return out


#: Which quality metrics a workload has (the others print as n/a).
QUALITY_OF = {
    "fleet50": tuple(QUALITY),
    "observed10": tuple(QUALITY),
    "replay25_sliding": ("detect_delay_sim_s",),
    "wire2": ("wire_bytes_per_sample",),
}

# -- sizes --------------------------------------------------------------------

#: ``repeats``: measured repeats at the nominal ``--seconds``; a scenario repeat is
#: a whole run, an op-loop repeat (replay, wire) lasts seconds/repeats.
#: ``setups``: how often set-up runs for the median that ``setup_s`` is.
#: ``seeds``: the scenario seeds ``--seed`` chooses from
#: (``harness.scenario_seed``).  Some seeds never finger the culprit (the
#: paper's own balanced accuracy is 80 %): about one in thirty at the full
#: sizes and one in three at the smoke sizes.  Such a run would fail
#: whatever the change under test did, so each list is the first ten
#: seeds from 1 up that do finger it at these sizes, on the commit the
#: baseline was measured on.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "fleet50": dict(slaves=50, duration_s=600.0, inject_s=120.0,
                        fast=True, observed=False, repeats=2, warm_s=20.0,
                        setups=3, seeds=tuple(range(1, 11))),
        "observed10": dict(slaves=10, duration_s=1200.0, inject_s=300.0,
                           fast=False, observed=True, repeats=2, warm_s=20.0,
                           setups=3, seeds=tuple(range(1, 11))),
        "replay25_sliding": dict(slaves=25, duration_s=600.0, inject_s=120.0,
                                 window=60, slide=1, ibuffer=1, repeats=3,
                                 setups=1, seeds=tuple(range(1, 11))),
        "wire2": dict(peers=2, batches=(1, 16), repeats=3, warm_rounds=20,
                      setups=3, seeds=tuple(range(1, 11))),
    },
    "smoke": {
        "fleet50": dict(slaves=6, duration_s=300.0, inject_s=30.0,
                        fast=True, observed=False, repeats=1, warm_s=5.0,
                        setups=1, seeds=(2, 3, 4, 5, 6, 7, 8, 9, 10, 13)),
        "observed10": dict(slaves=6, duration_s=300.0, inject_s=30.0,
                           fast=False, observed=True, repeats=1, warm_s=5.0,
                           setups=1, seeds=(2, 3, 4, 5, 6, 7, 8, 9, 10, 13)),
        "replay25_sliding": dict(slaves=10, duration_s=300.0, inject_s=30.0,
                                 window=60, slide=1, ibuffer=1, repeats=1,
                                 setups=1,
                                 seeds=(2, 3, 5, 6, 7, 8, 9, 10, 12, 13)),
        "wire2": dict(peers=2, batches=(1, 16), repeats=1, warm_rounds=5,
                      setups=1, seeds=tuple(range(1, 11))),
    },
}

#: ``--seconds`` the repeat counts above are sized for.
NOMINAL_SECONDS = {"full": 12, "smoke": 2}

#: Seeds per workload and set of ``--aa``: as many as the acceptance test
#: takes its quartiles over, and one for each of a workload's scenarios.
AA_SEEDS = 10


def repeats_for(sizes: Dict[str, Any], seconds: float, mode: str) -> int:
    """Repeat count: fixed by the arguments, so exact metrics repeat."""
    return max(1, round(sizes["repeats"] * seconds / NOMINAL_SECONDS[mode]))

#: Per-layer metrics that are timings; every other one repeats exactly
#: for one seed.  Span rows (``.us``, ``.share``) are timings too.
TIMED_COUNTERS = frozenset({
    "rpc.rtt_us_p50", "rpc.rtt_us_p95", "rpc.connect_us",
    "flightrec.archive_load_s", "trace.overhead_pct",
    "host.wall_s", "host.cpu_s", "host.samples_per_s",
    "host.cal_iter_us_p50", "host.cal_iter_us_iqr", "host.cal_share_pct",
    "host.gc_gen2",
})


def exact_per_layer() -> Tuple[str, ...]:
    return tuple(
        name for name in list(COUNTERS) + list(QUALITY)
        if name not in TIMED_COUNTERS
    )
