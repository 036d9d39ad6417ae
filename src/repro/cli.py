"""Command-line interface: ``python -m repro <command>``, one command per job.

* ``demo``     -- the one command that runs a monitored scenario: an
                  injected fault, the run summary and an ASCII alarm
                  timeline.  Any of ``--trace/--metrics/--audit``,
                  ``--serve/--scoreboard`` and ``--top`` attaches the
                  diagnosis observatory (whose telemetry summary and
                  alarm records the run then prints); each flag adds
                  its export, ops surface or live dashboard over it.
                  ``--record`` attaches a flight recorder for
                  ``incident`` and ``replay``; ``--dot`` writes the
                  annotated DAG;
* ``paper``    -- the paper's artifacts: ``paper table2`` (the fault
                  catalog), ``paper figure6`` (the fault-free threshold
                  sweeps), ``paper figure7`` (per-fault accuracy and
                  latency) and ``paper overhead`` (Tables 3 and 4);
* ``bench``    -- a fault x trial matrix through the parallel experiment
                  runner, printing its walls (``--check-parity`` also
                  runs it serially and asserts byte-identical results);
* ``config``   -- print the generated fpt-core configuration file (the
                  paper's Figure 3 at cluster scale);
* ``lint``     -- static analysis of configuration files (or the
                  generated one), module implementations, DAG cost and
                  the deployment code's threading;
* ``incident`` -- inspect the incident bundles a recorded run froze;
* ``replay``   -- feed a flight archive back through a DAG config and
                  check the replayed alarms against the recording;
* ``cluster``  -- the live multi-process deployment: ``up`` spawns the
                  node daemons and the central (``node`` / ``central``
                  are the entrypoints it spawns), ``drive`` runs the
                  measured fault+kill scenario, ``top`` is a terminal
                  dashboard over the central's federated stats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .core.errors import ConfigError
from .experiments import (
    ScenarioConfig,
    build_asdf_config_text,
    figure6,
    figure7,
    load_model,
    measure_overheads,
    parity_mismatches,
    pick_knee,
    run_scenario,
    run_tasks,
    save_model,
    shared_model,
    table2,
    table2_matrix,
)
from .experiments.report import render_summary, render_timeline
from .faults import FAULT_NAMES
from .flightrec import (
    FlightRecorder,
    ReplayArchive,
    load_bundles,
    render_bundle_text,
    run_replay,
)
from .telemetry import Telemetry

#: File name of the trained model saved alongside a flight archive.
ARCHIVE_MODEL_FILE = "model.json"

#: Simulated seconds between ``demo --top`` dashboard repaints.
TOP_REFRESH_S = 15.0

def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


#: The scenario flags: each command takes the ones it reads.
_SCENARIO_FLAGS = {
    "slaves": {"type": int, "default": 10, "help": "slave node count"},
    "duration": {"type": float, "default": 900.0, "help": "run seconds"},
    "seed": {"type": int, "default": 7},
    "inject": {"type": float, "default": 300.0, "help": "fault time"},
    "jobs": {
        "type": int, "default": 1,
        "help": "worker processes for the run matrix (0 = one per CPU; "
        "results are identical at any worker count)",
    },
}


def _add_scenario_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_SCENARIO_FLAGS[name])


def _scenario_config(args, **fields) -> ScenarioConfig:
    return ScenarioConfig(
        num_slaves=args.slaves, duration_s=args.duration, seed=args.seed,
        **fields,
    )


def _write_telemetry(observatory, args) -> None:
    telemetry = observatory.telemetry
    if args.trace:
        telemetry.tracer.write_chrome_trace(args.trace)
        print(f"wrote {len(telemetry.tracer.events)} trace events to {args.trace}")
    if args.metrics:
        os.makedirs(os.path.dirname(args.metrics) or ".", exist_ok=True)
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(telemetry.metrics.render_prometheus())
        print(f"wrote metrics exposition to {args.metrics}")
    if args.audit:
        count = observatory.write_alarms_jsonl(args.audit)
        print(f"wrote {count} alarm records to {args.audit}")


def _linger(server, linger_s: float) -> None:
    """Keep the ops surface up after the run until timeout or /shutdown."""
    if linger_s <= 0:
        return
    import time

    print(
        f"lingering {linger_s:.0f}s on {server.url} "
        "(GET /shutdown to stop early)...",
        flush=True,
    )
    deadline = time.monotonic() + linger_s
    while time.monotonic() < deadline:
        if server.shutdown_requested.wait(timeout=0.2):
            print("shutdown requested; stopping ops surface.", flush=True)
            return


def _top_repainter(observatory):
    """A tick callback repainting the ANSI dashboard every
    :data:`TOP_REFRESH_S` simulated seconds."""
    from .obsv import CLEAR_SCREEN, render_top

    last_frame = [float("-inf")]

    def repaint(sim_now: float) -> None:
        if sim_now - last_frame[0] < TOP_REFRESH_S:
            return
        last_frame[0] = sim_now
        sys.stdout.write(CLEAR_SCREEN + render_top(observatory) + "\n")
        sys.stdout.flush()

    return repaint


def cmd_demo(args) -> int:
    config = _scenario_config(args, fault_name=args.fault, inject_time=args.inject)
    observatory = None
    server = None
    if (args.trace or args.metrics or args.audit or args.top
            or args.serve is not None or args.scoreboard is not None):
        from .obsv import Observatory, OpsServer

        observatory = Observatory(Telemetry(trace=bool(args.trace)))
        if args.serve is not None:
            server = OpsServer(observatory, port=args.serve).start()
            print(f"ops surface listening on {server.url}", flush=True)
    print(f"training black-box model ({args.slaves} slaves)...", flush=True)
    model = shared_model(config)
    recorder = None
    if args.record:
        recorder = FlightRecorder(archive_dir=args.record)
        save_model(model, os.path.join(args.record, ARCHIVE_MODEL_FILE))
        recorder.note_manifest(
            scenario={
                "fault": args.fault,
                "slaves": args.slaves,
                "duration_s": args.duration,
                "seed": args.seed,
                "inject_time": args.inject,
            }
        )
    print(
        f"running {args.duration:.0f}s with "
        f"{args.fault or 'no fault'}...",
        flush=True,
    )
    # Colour and live repaints only on a terminal: a log or a pipe gets
    # one plain final frame.
    tty = sys.stdout.isatty()
    result = run_scenario(
        config,
        model=model,
        keep_handles=bool(args.dot),
        recorder=recorder,
        observatory=observatory,
        tick_callback=_top_repainter(observatory) if args.top and tty else None,
    )
    if args.top:
        from .obsv import CLEAR_SCREEN, render_top

        print((CLEAR_SCREEN if tty else "") + render_top(observatory, color=tty))
    print()
    print(render_summary(result))
    print()
    print(render_timeline(result))
    if observatory is not None:
        print()
        print(observatory.summary_text())
        _write_telemetry(observatory, args)
    if args.dot:
        os.makedirs(os.path.dirname(args.dot) or ".", exist_ok=True)
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(result.handles.core.to_dot(annotate=True))
        print(f"wrote annotated DAG to {args.dot}")
        result.handles.core.close()
    if args.scoreboard is not None:
        path = observatory.write_scoreboard(directory=args.scoreboard)
        print(f"\nwrote scoreboard to {path}")
    if server is not None:
        _linger(server, args.linger)
        server.stop()
    if recorder is not None:
        recorder.close()
        stats = recorder.stats()
        print(
            f"\nflight archive: {args.record} "
            f"({stats['archived_records']} records on "
            f"{stats['channels']} channels, "
            f"{stats['incidents']} incident bundle(s), "
            f"{stats['incidents_suppressed']} suppressed)"
        )
    if result.truth.faulty_node is not None:
        culprits = {alarm.node for alarm in result.alarms_all}
        if result.truth.faulty_node in culprits:
            print("\nculprit fingerpointed correctly.")
            return 0
        print("\nculprit NOT fingerpointed in this run.")
        return 1
    return 0


def cmd_table2(args) -> int:
    for row in table2():
        print(f"{row.fault_name:<12} {row.reported_failure}")
        print(f"{'':<12} injected: {row.injected}")
    return 0


def cmd_figure6(args) -> int:
    config = _scenario_config(args)
    result = figure6(config, model=shared_model(config))
    print(result.render())
    print(
        "\nsuggested operating points: bb threshold "
        f"{pick_knee(result.blackbox):.0f}, wb k {pick_knee(result.whitebox):.1f}"
    )
    return 0


def cmd_figure7(args) -> int:
    seeds = tuple(int(s) for s in args.seeds.split(","))
    config = _scenario_config(args, inject_time=args.inject)
    result = figure7(
        config, seeds=seeds, model=shared_model(config), jobs=args.jobs
    )
    print(result.render())
    return 0


def cmd_overhead(args) -> int:
    report = measure_overheads(num_slaves=args.slaves, duration_s=args.duration)
    print("Table 3: process overheads")
    print(report.table3_text())
    print("\nTable 4: RPC bandwidth per monitored node")
    print(report.table4_text())
    return 0


def cmd_bench(args) -> int:
    """Run a fault x trial matrix through the experiment runner."""
    faults = [f.strip() for f in args.faults.split(",") if f.strip()]
    unknown = [f for f in faults if f not in FAULT_NAMES]
    if unknown:
        print(f"error: unknown fault(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    base = _scenario_config(args, inject_time=args.inject)
    tasks = table2_matrix(base, faults=faults, trials=args.trials)
    print(
        f"bench matrix: {len(tasks)} tasks "
        f"({len(faults)} fault(s) x {args.trials} trial(s))"
    )
    print(f"training shared black-box model ({args.slaves} slaves)...", flush=True)
    model = shared_model(base)

    serial = None
    if args.check_parity or args.jobs == 1:
        print("running serial reference (jobs=1)...", flush=True)
        serial = run_tasks(tasks, jobs=1, model=model)
        print(f"  serial wall: {serial.wall_s:.2f}s")

    report = serial
    if args.jobs != 1:
        print(f"running with jobs={args.jobs}...", flush=True)
        report = run_tasks(tasks, jobs=args.jobs, model=model)
        print(f"  {report.mode} wall: {report.wall_s:.2f}s ({report.jobs} workers)")
        if serial is not None:
            print(f"  speedup vs serial: {serial.wall_s / report.wall_s:.2f}x")

    parity_ok = True
    if serial is not None and report is not serial:
        mismatches = parity_mismatches(serial, report)
        parity_ok = not mismatches
        print(
            "parity vs serial: "
            + ("IDENTICAL" if parity_ok else f"MISMATCH in {mismatches}")
        )
    return 0 if parity_ok else 1


def _generated_config_text(slaves: int) -> str:
    nodes = [f"slave{i + 1:02d}" for i in range(slaves)]
    return build_asdf_config_text(nodes, ScenarioConfig(num_slaves=slaves))


def cmd_config(args) -> int:
    print(_generated_config_text(args.slaves))
    return 0


def cmd_lint(args) -> int:
    """Static analysis: configs against module declarations, cost, threading.

    Exit codes: 0 clean (warnings allowed unless ``--strict``), 1 when
    any error-severity diagnostic fires, 2 on usage or I/O problems.
    """
    from .lint import (
        analyze_config,
        estimate_config,
        has_errors,
        lint_concurrency,
        lint_markers,
        render_json,
        render_text,
        sort_diagnostics,
    )
    from .lint.diagnostics import Severity

    diagnostics = []
    cost_reports = []
    # Nothing selected: lint everything (the generated config, the
    # static cost estimate, the deployment threading, and every noqa
    # marker in the source).
    lint_all = not args.configs and not (
        args.generated or args.cost or args.concurrency
    )

    # (text, file) pairs the config-level layers (FPT0xx, cost) run on.
    config_texts = []
    for path in args.configs:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
        config_texts.append((text, path))

    # --cost with no explicit config estimates the generated deployment.
    if args.generated or lint_all or (args.cost and not args.configs):
        config_texts.append(
            (_generated_config_text(args.slaves), "<generated>")
        )

    for text, file in config_texts:
        diagnostics.extend(analyze_config(text, file=file))

    if args.cost or lint_all:
        for text, file in config_texts:
            report = estimate_config(text, file=file, budget_ms=args.budget_ms)
            cost_reports.append(report)
            diagnostics.extend(report.diagnostics)

    if args.concurrency or lint_all:
        diagnostics.extend(lint_concurrency())

    if lint_all:
        diagnostics.extend(lint_markers())

    if args.json:
        if cost_reports:
            payload = {
                "diagnostics": [
                    d.to_json() for d in sort_diagnostics(diagnostics)
                ],
                "cost_reports": [report.to_json() for report in cost_reports],
            }
            print(json.dumps(payload, indent=2))
        else:
            print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
        for report in cost_reports:
            print()
            print(report.render())

    if has_errors(diagnostics):
        return 1
    if args.strict and any(
        d.severity is Severity.WARNING for d in diagnostics
    ):
        return 1
    return 0


def cmd_incident(args) -> int:
    """Inspect the incident bundles in a flight-archive directory."""
    bundles = load_bundles(args.directory)
    if not bundles:
        print(f"no incident bundles in {args.directory}")
        return 1
    shown = bundles[: args.limit] if args.limit else bundles
    if args.json:
        print(json.dumps([bundle for _, bundle in shown], indent=2))
    else:
        for i, (path, bundle) in enumerate(shown):
            if i:
                print()
            print(f"{os.path.basename(path)}:")
            print(render_bundle_text(bundle))
        if len(shown) < len(bundles):
            print(f"\n... and {len(bundles) - len(shown)} more bundles")
    return 0


def cmd_replay(args) -> int:
    """Replay a flight archive through a DAG config and score fidelity."""
    try:
        archive = ReplayArchive.load(args.directory)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config_text = fh.read()
        except OSError as error:
            print(f"error: cannot read {args.config}: {error}", file=sys.stderr)
            return 2
    else:
        config_text = archive.manifest.get("config_text")
        if not config_text:
            print(
                "error: archive manifest has no config_text; "
                "pass --config FILE",
                file=sys.stderr,
            )
            return 2
    services = {}
    model_path = os.path.join(args.directory, ARCHIVE_MODEL_FILE)
    if os.path.exists(model_path):
        services["bb_model"] = load_model(model_path)
    print(
        f"replaying {len(archive.records)} records "
        f"({archive.end_time():.0f}s of recording) from {args.directory}...",
        flush=True,
    )
    result = run_replay(archive, config_text, services=services)
    for sink in sorted(result.expected):
        replayed = result.alarms.get(sink, [])
        expected = result.expected[sink]
        verdict = "MATCH" if result.matches[sink] else "MISMATCH"
        print(
            f"  {sink}: {len(replayed)} alarms replayed, "
            f"{len(expected)} recorded -- {verdict}"
        )
        for alarm in replayed:
            print(f"    {alarm.describe()}")
    result.core.close()
    if result.all_match:
        print("replay verdict: alarms identical to the recorded run.")
        return 0
    print("replay verdict: alarms DIFFER from the recorded run.")
    return 1


def cmd_cluster_up(args) -> int:
    """Spawn the multi-daemon cluster and supervise it until stopped."""
    from .cluster import ClusterLauncher, list_runtimes

    launcher = ClusterLauncher(
        args.dir,
        nodes=args.nodes,
        interval_s=args.interval,
        seed=args.seed,
        max_frame_bytes=args.max_frame_bytes,
        per_host=args.per_host,
        sample_interval_s=args.sample_interval,
    )
    launcher.up()
    hosts = len(launcher.host_groups())
    print(
        f"starting {args.nodes} collection daemons ({hosts} host "
        f"process(es), {args.per_host}/host) + central "
        f"in {launcher.state_dir} ...",
        flush=True,
    )
    if not launcher.wait_ready():
        print("error: cluster did not become ready", file=sys.stderr)
        launcher.shutdown()
        return 1
    central = list_runtimes(launcher.state_dir, role="central").get("central")
    if central is not None:
        print(f"central ops surface: {central.ops_url}")
    for name, runtime in sorted(list_runtimes(launcher.state_dir,
                                              role="node").items()):
        print(
            f"  {name}: pid {runtime.pid}, rpc :{runtime.rpc_port}, "
            f"ops {runtime.ops_url}"
        )
    print("cluster ready; supervising (ctrl-C or the stop marker to exit)")
    return launcher.supervise()


def cmd_cluster_node(args) -> int:
    """Entrypoint for one node host process (spawned by ``cluster up``)."""
    from .cluster import run_node_host
    from .rpc import set_max_frame_bytes

    if args.max_frame_bytes is not None:
        set_max_frame_bytes(args.max_frame_bytes)
    names = [n.strip() for n in args.names.split(",") if n.strip()]
    return run_node_host(
        names, args.dir, seed=args.seed,
        sample_interval_s=args.sample_interval,
    )


def cmd_cluster_central(args) -> int:
    """Entrypoint for the central analysis daemon."""
    from .cluster import run_central
    from .rpc import set_max_frame_bytes

    if args.max_frame_bytes is not None:
        set_max_frame_bytes(args.max_frame_bytes)
    return run_central(args.dir, interval_s=args.interval,
                       ops_port=args.serve or 0)


def _cmd_cluster_scale_drive(args) -> int:
    """The ``--nodes 3,10,25`` sweep: boot, measure, tear down per count."""
    from .cluster.driver import (
        DriveError,
        check_cluster_scale_gate,
        run_scale_drive,
    )

    try:
        counts = [int(c) for c in args.nodes.split(",") if c.strip()]
    except ValueError:
        print(f"error: bad --nodes list {args.nodes!r}", file=sys.stderr)
        return 2
    try:
        bench = run_scale_drive(
            args.out,
            node_counts=counts,
            per_host=args.per_host,
            interval_s=args.interval,
            sustain_s=args.sustain,
            seed=args.seed,
        )
    except DriveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for entry in bench["sweep"]:
        mean_round = entry.get("mean_round_s")
        bytes_node = entry.get("bytes_per_node_round")
        detection = entry.get("detection_s")
        print(
            f"nodes={entry['nodes']:<4} ({entry['processes']} procs): "
            f"{entry.get('samples_per_sec') or 0:.1f} samples/s  "
            f"round mean "
            f"{(f'{mean_round * 1000:.1f}ms' if mean_round else '-')}  "
            f"{(f'{bytes_node:.0f}' if bytes_node else '-')} B/node/round"
            + (f"  detection {detection:.2f}s" if detection else "")
        )
    scaling = bench["round_scaling"]
    if scaling.get("ratio") is not None:
        print(
            f"round scaling {scaling['smallest_nodes']} -> "
            f"{scaling['largest_nodes']} nodes: {scaling['ratio']:.2f}x "
            f"mean round growth"
        )
    out_path = os.path.join(args.out, "BENCH_cluster.json")
    print(f"wrote {out_path}")
    ok, message = (bench["ok"], "")
    if args.gate:
        ok, message = check_cluster_scale_gate(
            bench, baseline_path=args.gate, slack=args.gate_slack
        )
        print(message, file=sys.stdout if ok else sys.stderr)
    elif not bench["ok"]:
        for failure in bench["failures"]:
            print(f"bench FAILURE: {failure}", file=sys.stderr)
    return 0 if ok and bench["ok"] else 1


def cmd_cluster_drive(args) -> int:
    """Run the measured scenario against a live cluster."""
    from .cluster.driver import DriveError, run_drive

    if args.nodes:
        return _cmd_cluster_scale_drive(args)
    try:
        bench = run_drive(
            args.dir,
            args.out,
            sustain_s=args.sustain,
            inject_node=args.inject_node,
            kill_node=args.kill_node,
            fault_kind=args.fault_kind,
            shutdown=args.shutdown,
        )
    except DriveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    samples = bench["samples"]
    latency = bench.get("alarm_latency_wall_s") or {}
    reconnect = bench["reconnect"]
    print(f"sustained throughput: {samples['per_sec']:.1f} samples/s "
          f"({samples['measured']} samples over {bench['sustain_s']:.1f}s)")
    if latency.get("count"):
        print(f"alarm wall latency:   p50 {latency['p50']:.3f}s  "
              f"p90 {latency['p90']:.3f}s  p99 {latency['p99']:.3f}s "
              f"({latency['count']} observations)")
    fault = bench["fault"]
    if fault.get("detection_s") is not None:
        print(f"fault detection:      {fault['kind']} on {fault['node']} "
              f"flagged after {fault['detection_s']:.2f}s")
    if reconnect.get("reconnected"):
        print(f"kill + respawn:       {reconnect['killed_node']} back in "
              f"{reconnect['downtime_s']:.2f}s "
              f"(pid {reconnect['killed_pid']} -> "
              f"{reconnect['respawned_pid']})")
    trace = bench["trace"]
    print(f"stitched trace:       {trace['multi_pid_traces']} multi-pid "
          f"trace ids across {len(trace['distinct_pids'])} pids "
          f"({trace['file']})")
    out_path = os.path.join(args.out, "BENCH_cluster.json")
    if bench["ok"]:
        print(f"bench OK -> {out_path}")
        return 0
    for failure in bench["failures"]:
        print(f"bench FAILURE: {failure}", file=sys.stderr)
    print(f"bench NOT ok -> {out_path}", file=sys.stderr)
    return 1


def _render_cluster_top(stats: dict, cluster: dict) -> str:
    """One text frame of the federated cluster dashboard."""
    lines = []
    backpressure = stats.get("backpressure", {})
    latency = stats.get("alarm_wall_latency_s", {})
    lines.append(
        f"cluster: rounds {stats.get('rounds', 0)}  "
        f"samples {stats.get('samples_total', 0)} "
        f"({stats.get('samples_per_sec', 0.0):.1f}/s)  "
        f"alarms {stats.get('alarms_total', 0)}  "
        f"rounds_late {backpressure.get('rounds_late', 0)}"
    )
    if latency.get("count"):
        lines.append(
            f"alarm wall latency: p50 {latency['p50']:.3f}s  "
            f"p90 {latency['p90']:.3f}s  p99 {latency['p99']:.3f}s"
        )
    lines.append("")
    lines.append(f"{'DAEMON':<10} {'PID':>7} {'ALIVE':>5} {'CONN':>4} "
                 f"{'BUSY%':>6} {'STREAK':>6} {'SAMPLES':>8} "
                 f"{'LAG_S':>6} {'RECON':>5}")
    nodes = stats.get("nodes", {})
    daemons = sorted(cluster.get("daemons", []),
                     key=lambda d: d.get("name", ""))
    for daemon in daemons:
        if daemon.get("role") != "node":
            continue
        name = daemon.get("name", "?")
        node = nodes.get(name, {})
        busy = node.get("busy_pct")
        lag = node.get("watermark_lag_s")
        lines.append(
            f"{name:<10} {daemon.get('pid', 0):>7} "
            f"{'yes' if daemon.get('alive') else 'NO':>5} "
            f"{'yes' if node.get('connected') else 'no':>4} "
            f"{(f'{busy:.1f}' if busy is not None else '-'):>6} "
            f"{node.get('streak', 0):>6} {node.get('samples', 0):>8} "
            f"{(f'{lag:.2f}' if lag is not None else '-'):>6} "
            f"{node.get('reconnects', 0):>5}"
        )
    for alarm in stats.get("alarms", [])[-5:]:
        lines.append("")
        lines.append(
            f"ALARM {alarm.get('node')}: {alarm.get('detail', '')} "
            f"(wall latency "
            f"{alarm.get('wall_latency_s', 0.0):.3f}s)"
        )
    return "\n".join(lines)


def cmd_cluster_top(args) -> int:
    """Live terminal dashboard over the federated cluster stats."""
    import time as _time

    from .cluster import list_runtimes, pid_alive
    from .cluster.federation import http_get_json
    from .obsv import CLEAR_SCREEN

    runtime = list_runtimes(args.dir, role="central").get("central")
    if runtime is None or not pid_alive(runtime.pid):
        print(f"error: no live central daemon published in {args.dir}",
              file=sys.stderr)
        return 2
    base = runtime.ops_url
    tty = sys.stdout.isatty()
    once = args.once or not tty
    while True:
        try:
            stats = http_get_json(f"{base}/control/stats", timeout=5.0)
            cluster = http_get_json(f"{base}/cluster", timeout=5.0)
        except OSError as exc:
            print(f"error: central daemon unreachable: {exc}",
                  file=sys.stderr)
            return 1
        frame = _render_cluster_top(stats, cluster)
        if once:
            print(frame)
            return 0
        sys.stdout.write(CLEAR_SCREEN + frame + "\n")
        sys.stdout.flush()
        _time.sleep(args.refresh)


class _Parser(argparse.ArgumentParser):
    """Flags are spelled out: no prefix abbreviations, so a removed
    flag (``--name``) cannot live on as a prefix of a kept one
    (``--names``).  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro",
        description="ASDF (DSN 2009) reproduction: online fingerpointing "
        "of performance problems in a simulated Hadoop cluster.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser(
        "demo",
        help="one monitored fault-injection run; flags attach the "
        "observatory (exports, ops surface, dashboard) and the flight "
        "recorder",
    )
    _add_scenario_flags(demo, "slaves", "duration", "seed", "inject")
    demo.add_argument(
        "--fault",
        choices=list(FAULT_NAMES),
        default="CPUHog",
        help="fault to inject (Table 2 name)",
    )
    demo.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace-event file (load in chrome://tracing)",
    )
    demo.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write the core's self-metrics in Prometheus text format",
    )
    demo.add_argument(
        "--audit", metavar="FILE", default=None,
        help="write the observatory's alarm records as JSONL",
    )
    demo.add_argument(
        "--dot", metavar="FILE", default=None,
        help="write the DAG annotated with run counts and mean latencies",
    )
    demo.add_argument(
        "--record", metavar="DIR", default=None,
        help="attach a flight recorder and archive the run (channels, "
        "model, config, incident bundles) into DIR",
    )
    demo.add_argument(
        "--serve", metavar="PORT", type=int, nargs="?", const=0, default=None,
        help="serve the live ops surface (/health /metrics /status "
        "/alarms /scoreboard) on this port while the run executes "
        "(0 or no value = ephemeral port)",
    )
    demo.add_argument(
        "--linger", type=float, default=0.0, metavar="S",
        help="keep the ops surface up S wall seconds after the run "
        "(GET /shutdown ends the wait early)",
    )
    demo.add_argument(
        "--scoreboard", metavar="DIR", nargs="?", const=".", default=None,
        help="attach the observatory and write BENCH_scoreboard.json "
        "into DIR (default: the working directory)",
    )
    demo.add_argument(
        "--top", action="store_true",
        help="repaint a live dashboard (node health, sample-to-alarm "
        f"latencies, hottest modules) every {TOP_REFRESH_S:.0f} sim-s; "
        "one plain final frame when stdout is not a terminal",
    )
    demo.set_defaults(handler=cmd_demo)

    paper = commands.add_parser(
        "paper", help="regenerate one of the paper's tables or figures",
    )
    artifacts = paper.add_subparsers(dest="artifact", required=True)
    catalog = artifacts.add_parser("table2", help="the fault catalog")
    catalog.set_defaults(handler=cmd_table2)
    fig6 = artifacts.add_parser(
        "figure6", help="fault-free threshold sweeps (one run)"
    )
    _add_scenario_flags(fig6, "slaves", "duration", "seed")
    fig6.set_defaults(handler=cmd_figure6)
    fig7 = artifacts.add_parser(
        "figure7", help="per-fault accuracy and latency"
    )
    _add_scenario_flags(fig7, "slaves", "duration", "seed", "inject", "jobs")
    fig7.add_argument("--seeds", default="7,19", help="comma-separated seeds")
    fig7.set_defaults(handler=cmd_figure7)
    overhead = artifacts.add_parser("overhead", help="Tables 3 and 4")
    _add_scenario_flags(overhead, "slaves", "duration")
    overhead.set_defaults(handler=cmd_overhead)

    bench = commands.add_parser(
        "bench",
        help="run a fault x trial matrix through the parallel experiment "
        "runner and print its walls",
    )
    _add_scenario_flags(bench, "slaves", "duration", "seed", "inject", "jobs")
    bench.add_argument(
        "--faults", default=",".join(FAULT_NAMES),
        help="comma-separated Table 2 fault names",
    )
    bench.add_argument(
        "--trials", type=int, default=1,
        help="independent trials per fault (seeds derived from --seed)",
    )
    bench.add_argument(
        "--check-parity", action="store_true",
        help="also run serially and assert the parallel results are "
        "byte-identical (exit 1 on mismatch)",
    )
    bench.set_defaults(handler=cmd_bench)

    config = commands.add_parser(
        "config", help="print the generated fpt-core configuration file"
    )
    _add_scenario_flags(config, "slaves")
    config.set_defaults(handler=cmd_config)

    lint = commands.add_parser(
        "lint",
        help="static analysis: configs vs module declarations, DAG cost, "
        "cross-thread races",
    )
    _add_scenario_flags(lint, "slaves")
    lint.add_argument(
        "configs", nargs="*", metavar="CONFIG",
        help="fpt-core configuration file(s) to check; with no file and "
        "no selection flag, everything is linted",
    )
    lint.add_argument(
        "--generated", action="store_true",
        help="lint the generated deployment config (respects --slaves)",
    )
    lint.add_argument(
        "--cost", action="store_true",
        help="fold the config DAG through the per-type cost facts "
        "(read from bench/'s traced stage table) into a per-tick CPU "
        "estimate: FPT301 over budget, FPT303 window rescanned; with no "
        "CONFIG, estimates the generated deployment",
    )
    lint.add_argument(
        "--budget-ms", type=_positive_float, default=None, metavar="MS",
        help="per-tick CPU budget for --cost, positive (default 1000ms = "
        "keeping up with real time)",
    )
    lint.add_argument(
        "--concurrency", action="store_true",
        help="scan the deployment packages for cross-thread shared-state "
        "races (FPT401)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit diagnostics as JSON (with --cost, an object carrying "
        "'diagnostics' and 'cost_reports')",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on warnings too, not only errors",
    )
    lint.set_defaults(handler=cmd_lint)

    incident = commands.add_parser(
        "incident", help="inspect a recorded run's incident bundles"
    )
    incident.add_argument("directory", help="flight-archive directory")
    incident.add_argument(
        "--json", action="store_true", help="dump raw bundle JSON"
    )
    incident.add_argument(
        "--limit", type=int, default=0, help="show at most N bundles"
    )
    incident.set_defaults(handler=cmd_incident)

    replay = commands.add_parser(
        "replay",
        help="replay a flight archive through a DAG config and compare "
        "alarms against the recording",
    )
    replay.add_argument("directory", help="flight-archive directory")
    replay.add_argument(
        "--config", metavar="FILE", default=None,
        help="fpt-core configuration file (default: the config_text "
        "stored in the archive manifest)",
    )
    replay.set_defaults(handler=cmd_replay)

    cluster = commands.add_parser(
        "cluster",
        help="live multi-daemon deployment: real processes, real sockets",
    )
    cluster_cmds = cluster.add_subparsers(dest="cluster_command",
                                          required=True)

    def _cluster_parser(name: str, help_text: str,
                        frame_limit: bool = False) -> argparse.ArgumentParser:
        sub = cluster_cmds.add_parser(name, help=help_text)
        sub.add_argument(
            "--dir", default="out/cluster",
            help="shared state directory (runtime files, logs, stop marker)",
        )
        if frame_limit:
            sub.add_argument(
                "--max-frame-bytes", type=int, default=None,
                help="override the RPC frame-size limit for every daemon "
                "(also settable via ASDF_MAX_FRAME_BYTES)",
            )
        return sub

    up = _cluster_parser(
        "up", "spawn central + N collection daemons, then supervise",
        frame_limit=True,
    )
    up.add_argument("--nodes", type=int, default=3,
                    help="number of logical collection daemons")
    up.add_argument("--interval", type=float, default=0.5,
                    help="central poll interval, wall seconds")
    up.add_argument("--seed", type=int, default=1,
                    help="base RNG seed for the node loads")
    up.add_argument("--per-host", type=int, default=8,
                    help="logical node daemons packed per host process")
    up.add_argument("--sample-interval", type=float, default=None,
                    help="node-host sampling cadence, wall seconds "
                    "(default: max(0.25, --interval))")
    up.set_defaults(handler=cmd_cluster_up)

    node = _cluster_parser(
        "node", "one node host process (spawned by 'cluster up')",
        frame_limit=True,
    )
    node.add_argument("--names", required=True,
                      help="comma-separated logical node names this host "
                      "process serves")
    node.add_argument("--seed", type=int, default=0,
                      help="RNG seed for this host's load")
    node.add_argument("--sample-interval", type=float, default=0.5,
                      help="sampler-thread cadence, wall seconds")
    node.set_defaults(handler=cmd_cluster_node)

    central = _cluster_parser(
        "central", "the central analysis daemon", frame_limit=True,
    )
    central.add_argument("--interval", type=float, default=0.5,
                         help="poll interval, wall seconds")
    central.add_argument("--serve", type=int, default=None, metavar="PORT",
                         help="ops HTTP port (default: ephemeral)")
    central.set_defaults(handler=cmd_cluster_central)

    drive = _cluster_parser(
        "drive",
        "measured scenario: sustain, inject, kill + respawn, "
        "write BENCH_cluster.json",
    )
    drive.add_argument("--out", default=".",
                       help="directory for BENCH_cluster.json and the "
                       "stitched trace")
    drive.add_argument("--sustain", type=float, default=5.0,
                       help="wall seconds of steady-state traffic to measure")
    drive.add_argument("--inject-node", default=None,
                       help="node to perturb (default: first)")
    drive.add_argument("--kill-node", default=None,
                       help="node to SIGKILL (default: last)")
    drive.add_argument("--fault-kind", default="cpuhog",
                       choices=["cpuhog", "diskhog"],
                       help="synthetic load perturbation to inject")
    drive.add_argument("--shutdown", action="store_true",
                       help="leave the stop marker when done so 'cluster "
                       "up' exits")
    drive.add_argument("--nodes", default=None, metavar="N,N,...",
                       help="scale sweep: boot+measure+tear down a fresh "
                       "self-contained cluster per node count (e.g. "
                       "3,10,25) instead of driving a running one")
    drive.add_argument("--per-host", type=int, default=8,
                       help="logical nodes per host process in the sweep")
    drive.add_argument("--interval", type=float, default=0.25,
                       help="central poll interval for the sweep, wall "
                       "seconds")
    drive.add_argument("--seed", type=int, default=1,
                       help="base RNG seed for the sweep's node loads")
    drive.add_argument("--gate", default=None, metavar="BASELINE.json",
                       help="regression-gate the sweep against a committed "
                       "asdf-cluster-scale trajectory")
    drive.add_argument("--gate-slack", type=float, default=0.4,
                       help="fraction of baseline samples/sec the sweep "
                       "must retain")
    drive.set_defaults(handler=cmd_cluster_drive)

    cluster_top = _cluster_parser(
        "top", "terminal dashboard over the federated cluster stats",
    )
    cluster_top.add_argument("--refresh", type=float, default=1.0,
                             help="wall seconds between repaints")
    cluster_top.add_argument("--once", action="store_true",
                             help="print a single snapshot and exit "
                             "(implied when stdout is not a TTY)")
    cluster_top.set_defaults(handler=cmd_cluster_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as error:
        # Bad configuration input, not a crash: show its lint code and
        # the offending line (ConfigError.describe carries the line
        # number and text), and point at the lint for the full report.
        print(f"configuration error: {error.code} {error.describe()}", file=sys.stderr)
        print(
            "hint: run 'python -m repro lint <config>' for the full "
            "diagnostic report",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
