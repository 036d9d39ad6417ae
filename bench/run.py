#!/usr/bin/env python3
"""The benchmark of the sample->alarm path.  See bench/README.md.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last line of standard output
        is the result object BENCHMARK.json describes.
    python3 bench/run.py [--seed N] [--trace 1] [--smoke] [--out DIR]
        every workload, each in a fresh child process, one at a time.
    python3 bench/run.py --aa [--smoke]
        two full sets on this checkout, compared metric by metric.

The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import spec  # noqa: E402 -- needs the path entry above

#: workload -> (module, class); imported only in the measuring process.
WORKLOAD_CLASSES = {
    "fleet50": ("live", "LiveWorkload"),
    "observed10": ("live", "LiveWorkload"),
    "replay25_sliding": ("replay", "ReplayWorkload"),
    "wire2": ("wire", "WireWorkload"),
}

#: The named span rows must cover the traced wall to within this share.
MAX_HARNESS_SHARE_PCT = 2.0


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: 12, smoke: 2)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer pass")
    parser.add_argument("--smoke", action="store_true", help="small sizes")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets and compare them")
    parser.add_argument("--out", default=spec.OUT_DIR,
                        help="directory for result and span files")
    args = parser.parse_args(argv)
    args.mode = "smoke" if args.smoke else "full"
    if args.seconds is None:
        args.seconds = float(spec.NOMINAL_SECONDS[args.mode])
    return args


# -- one workload, in this process ---------------------------------------------

def measure_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the full record."""
    # One numeric thread, fixed before numpy loads.
    os.environ["OMP_NUM_THREADS"] = "1"
    started = time.process_time()
    import harness
    from calib import REF_ITER_S, Calibrator, normalise_gaps
    from spans import SpanRecorder

    harness.bootstrap_src()
    module_name, class_name = WORKLOAD_CLASSES[args.workload]
    workload_class = getattr(importlib.import_module(module_name), class_name)
    import_s = time.process_time() - started

    cal = Calibrator()
    cal.phase()
    import_cu = import_s / cal.iter_s
    sizes = spec.SIZES[args.mode][args.workload]
    os.makedirs(args.out, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    workload = None
    try:
        # Set-up, ``setups`` times for a median (once when tracing, which
        # does not report it); the last one is kept.  A workload's
        # setup() slices between its phases, and set-up is whatever ran
        # between the slices.
        setup_cu: List[float] = []
        setup_raw: List[float] = []
        for _ in range(1 if args.trace else sizes["setups"]):
            if workload is not None:
                workload.close()
            workload = workload_class(sizes, args.seed, cal, tmp_dir)
            cal.phase()
            mark = len(cal.slices) - 1
            workload.setup()
            cal.phase()
            cu, raw = normalise_gaps(cal.slices[mark:])
            setup_cu.append(cu)
            setup_raw.append(raw)

        record: Dict[str, Any] = {
            "workload": args.workload, "seed": args.seed, "mode": args.mode,
            "seconds": args.seconds, "trace": args.trace, "sizes": sizes,
            "host": harness.fingerprint(),
            "setups": len(setup_raw),
            "setup_raw_s": statistics.median(setup_raw),
            "import_raw_s": import_s,
        }
        if args.trace:
            rec = SpanRecorder()
            references, traced, derived = workload.trace(args.seconds, rec)
            repeats = references + [traced]
            metrics, harness_share = harness.layer_metrics(traced, rec, derived)
            record["harness_share_pct"] = harness_share
            if harness_share > MAX_HARNESS_SHARE_PCT:
                traced.fail_all(
                    f"span rows miss {harness_share:.2f} % of the traced wall"
                )
            rec.write(os.path.join(args.out, f"trace_{args.workload}.json"))
            catalogue = spec.per_layer_catalogue()
            units = {name: catalogue[name][0] for name in catalogue}
        else:
            repeats = workload.measure(args.seconds, args.mode)
            costs = [harness.repeat_cost(repeat) for repeat in repeats]
            metrics = {
                "setup_s": (import_cu + statistics.median(setup_cu)) * REF_ITER_S,
                "norm_cost_per_sample": statistics.median(c.cost_cu for c in costs),
                "norm_tick_p95": statistics.median(c.tick_p95_cu for c in costs),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {name: spec.END_TO_END[name][0] for name in metrics}
            record["quality"] = harness.quality_medians(repeats)
            record["raw_us_per_sample"] = statistics.median(c.raw_us for c in costs)
            record["ticks"] = sum(c.ticks for c in costs)
            record["per_repeat"] = [
                {"cost_cu": c.cost_cu, "tick_p95_cu": c.tick_p95_cu,
                 "raw_us": c.raw_us, "ticks": c.ticks,
                 "scenario": r.scenario, "quality": r.quality}
                for c, r in zip(costs, repeats)
            ]
            iters = sorted(t for c in costs for t in c.cal_iter_us)
            record["cal_iter_us_p50"] = iters[len(iters) // 2]
            record["cal_share_pct"] = statistics.median(c.cal_share_pct for c in costs)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    committed = harness.committed_quality(args.workload, sizes)
    for repeat in repeats:
        harness.gate_quality(repeat, committed)
    record.update({
        "repeats": len(repeats),
        "attempted": sum(repeat.attempted for repeat in repeats),
        "failed": sum(repeat.failed for repeat in repeats),
        "problems": [p for repeat in repeats for p in repeat.problems],
        "gated": bool(committed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })
    record["correct"] = record["failed"] == 0 and not record["problems"]
    return record


def print_record(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the result object."""
    host = record["host"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{record['mode']} sizes  trace {record['trace']}  "
          f"{record['repeats']} repeats  {record['setups']} set-ups")
    print("host  " + "  ".join(f"{key}={host[key]}" for key in sorted(host)))
    print(f"sizes {json.dumps(record['sizes'], sort_keys=True)}")
    for name, entry in record["metrics"].items():
        print(f"  {name:<32} {entry['value']:>14.4f} {entry['unit']}")
    if not record["trace"]:
        has = spec.QUALITY_OF[record["workload"]]
        for name, (unit, _better) in spec.QUALITY.items():
            value = record["quality"].get(name) if name in has else None
            shown = f"{value:>14.4f} {unit}" if value is not None else f"{'n/a':>14}"
            print(f"  {name:<32} {shown}")
        print(f"  raw: {record['raw_us_per_sample']:.1f} us/sample over "
              f"{record['ticks']} ticks; set-up {record['setup_raw_s']:.2f} s + "
              f"import {record['import_raw_s']:.2f} s; 1 cu = "
              f"{record['cal_iter_us_p50']:.1f} us here; calibration "
              f"{record['cal_share_pct']:.1f} % of measured time")
    else:
        print(f"  harness share of traced wall: {record['harness_share_pct']:.2f} %")
    print(f"  ops {record['attempted']}  ops_failed {record['failed']}")
    if not record["gated"]:
        print("  note: baseline.json was measured at other sizes; "
              "the exact results are not held against it")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"],
    }))


def result_file(out_dir: str, workload: str, seed: int, trace: int) -> str:
    return os.path.join(out_dir, f"results_{workload}_seed{seed}_trace{trace}.json")


def run_one(args: argparse.Namespace) -> int:
    record = measure_workload(args)
    path = result_file(args.out, args.workload, args.seed, args.trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_record(record)
    return 0 if record["correct"] else 1


# -- every workload, each in a child --------------------------------------------

def run_child(args: argparse.Namespace, workload: str, seed: int, trace: int,
              out_dir: str, echo: bool) -> Dict[str, Any]:
    """Run one workload in a fresh process; returns its full record."""
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", out_dir,
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, OMP_NUM_THREADS="1")
    path = result_file(out_dir, workload, seed, trace)
    if os.path.exists(path):
        os.remove(path)     # never read an earlier run's result
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if echo:
        sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if not os.path.exists(path):
        raise SystemExit(f"bench: {workload} (seed {seed}) exited with "
                         f"{done.returncode} and no result")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["exit_code"] = done.returncode
    return record


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for workload in spec.WORKLOADS:
        record = run_child(args, workload, args.seed, args.trace,
                           args.out, echo=True)
        status = status or record["exit_code"]
        print()
    return status


# -- A/A ------------------------------------------------------------------------

def quartiles(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0


def run_set(args: argparse.Namespace, label: str) -> Dict[str, Any]:
    """One full set: ``AA_SEEDS`` seeds untraced and one traced run per workload."""
    out_dir = os.path.join(args.out, f"aa-{label}")
    result: Dict[str, Any] = {}
    for workload in spec.WORKLOADS:
        seeds = [args.seed + offset for offset in range(spec.AA_SEEDS)]
        plain = [run_child(args, workload, seed, 0, out_dir, echo=False)
                 for seed in seeds]
        traced = run_child(args, workload, args.seed, 1, out_dir, echo=False)
        result[workload] = {"plain": plain, "traced": traced}
        print(f"set {label}: {workload} done", file=sys.stderr, flush=True)
    return result


def write_baseline(args: argparse.Namespace, one_set: Dict[str, Any]) -> None:
    """Set A as the baseline of this host: ``baseline.json`` in the out dir."""
    seeds = [args.seed + offset for offset in range(spec.AA_SEEDS)]
    workloads: Dict[str, Any] = {}
    for workload, runs in one_set.items():
        plain, traced = runs["plain"], runs["traced"]
        workloads[workload] = {
            "sizes": plain[0]["sizes"], "repeats": plain[0]["repeats"],
            "end_to_end": {
                name: dict(quartiles([r["metrics"][name]["value"] for r in plain]),
                           unit=unit)
                for name, (unit, _better, _bound) in spec.END_TO_END.items()
            },
            # What later runs of the same scenarios are held against.
            "quality_by_scenario": {
                str(repeat["scenario"]): repeat["quality"]
                for r in plain for repeat in r["per_repeat"]
            },
            "raw_us_per_sample": quartiles([r["raw_us_per_sample"] for r in plain]),
            "cal_iter_us_p50": quartiles([r["cal_iter_us_p50"] for r in plain]),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    first = one_set[spec.WORKLOADS[0]]["plain"][0]
    path = os.path.join(args.out, "baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"host": first["host"], "mode": args.mode, "seconds": args.seconds,
             "seeds": seeds, "traced_seed": args.seed, "workloads": workloads},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")


def run_aa(args: argparse.Namespace) -> int:
    sets = {label: run_set(args, label) for label in ("A", "B")}
    write_baseline(args, sets["A"])
    ok = True
    print(f"# A/A: two sets of the same code, {spec.AA_SEEDS} seeds per workload "
          f"(seed {args.seed}..{args.seed + spec.AA_SEEDS - 1}), {args.mode} sizes\n")
    print("Medians over the seeds of a set; `spread` is the inter-quartile "
          "distance over the median, as the acceptance test takes it.  "
          "`raw us/sample` is what the host clock said and is not gated.\n")
    for workload in spec.WORKLOADS:
        print(f"## {workload}\n")
        print("| metric | unit | A | B | B vs A | spread A | spread B | bound | |")
        print("|---|---|---:|---:|---:|---:|---:|---:|---|")
        runs = {label: sets[label][workload]["plain"] for label in sets}
        rows = [
            (name, unit, bound,
             {label: [r["metrics"][name]["value"] for r in runs[label]]
              for label in runs})
            for name, (unit, _better, bound) in spec.END_TO_END.items()
        ]
        rows.append(("raw us/sample", "us", None, {
            label: [r["raw_us_per_sample"] for r in runs[label]] for label in runs
        }))
        for name, unit, bound, values in rows:
            a = statistics.median(values["A"])
            b = statistics.median(values["B"])
            diff = (b - a) / a
            spreads = (spread(values["A"]), spread(values["B"]))
            verdict = ""
            if bound is not None:
                passed = abs(diff) <= bound and (
                    name == "setup_s" or max(spreads) <= bound
                )
                verdict = "PASS" if passed else "FAIL"
                ok = ok and passed
            print(f"| {name} | {unit} | {a:.4f} | {b:.4f} | {diff:+.1%} | "
                  f"{spreads[0]:.1%} | {spreads[1]:.1%} | "
                  f"{'' if bound is None else format(bound, '.0%')} | {verdict} |")
        failed = {
            label: sum(r["failed"] for r in runs[label])
            + sets[label][workload]["traced"]["failed"]
            for label in runs
        }
        incorrect = [
            f"{label} seed {r['seed']} trace {r['trace']}"
            for label in runs
            for r in runs[label] + [sets[label][workload]["traced"]]
            if not r["correct"]
        ]
        same_quality = all(
            ra["quality"] == rb["quality"] for ra, rb in zip(runs["A"], runs["B"])
        )
        traced = {label: sets[label][workload]["traced"]["metrics"] for label in sets}
        differing = [
            name for name in spec.exact_per_layer()
            if traced["A"][name]["value"] != traced["B"][name]["value"]
        ]
        exact_ok = same_quality and not differing and not incorrect
        ok = ok and exact_ok
        print(f"\nops_failed: A {failed['A']}, B {failed['B']}"
              f"{'; failed checks in ' + ', '.join(incorrect) if incorrect else ''}"
              f".  Exact metrics "
              f"({len(spec.exact_per_layer())} per-layer counters of the traced "
              f"run, quality metrics of every seed): "
              f"{'identical' if same_quality and not differing else 'DIFFER ' + str(differing)}"
              f" -- {'PASS' if exact_ok else 'FAIL'}\n")
    print(f"Overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.aa:
        return run_aa(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
