"""Command-line interface: ``python -m repro <command>``.

Everything the evaluation does, runnable from a terminal:

* ``demo``      -- one monitored run with an injected fault, with an
                   ASCII alarm timeline;
* ``calibrate`` -- the Figure 6 fault-free threshold sweeps;
* ``figure7``   -- the full per-fault accuracy/latency sweep;
* ``overhead``  -- Tables 3 and 4;
* ``table2``    -- the fault catalog;
* ``bench``     -- the parallel experiment runner over a fault x trial
                   matrix, emitting a ``BENCH_<name>.json`` timing file
                   (optionally asserting parallel/serial parity);
* ``config``    -- print the generated fpt-core configuration file
                   (the paper's Figure 3 at cluster scale);
* ``lint``      -- static analysis: check configuration files (or the
                   generated one) against the module contracts, verify
                   module implementations match their declarations,
                   price the DAG, and race-scan the deployment code;
* ``telemetry`` -- run a monitored scenario with self-instrumentation on
                   and print the summary (per-instance run latencies,
                   queue stats, RPC bytes, the alarm audit trail,
                   filterable with ``--tail``/``--since``);
* ``top``       -- live ANSI dashboard over a running scenario: node
                   health, sample-to-alarm latencies, hottest modules;
* ``incident``  -- inspect the incident bundles a recorded run froze;
* ``replay``    -- feed a recorded flight archive back through a DAG
                   config, faster than real time, and check the replayed
                   alarms against the recording;
* ``cluster``   -- the live multi-daemon deployment: ``cluster up``
                   spawns one collection daemon per node as a real OS
                   process plus the central analysis daemon (federated
                   ``/metrics``, ``/status``, ``/cluster`` on the
                   central's ops port), ``cluster drive`` runs the
                   measured fault+kill scenario and writes
                   ``BENCH_cluster.json``, and ``cluster top`` renders a
                   terminal dashboard over the federated stats
                   (``cluster node`` / ``cluster central`` are the
                   daemon entrypoints the launcher spawns).

``demo`` and ``telemetry`` accept ``--trace FILE`` (Chrome
``chrome://tracing`` trace of every module run) and ``--metrics FILE``
(Prometheus text exposition of the core's self-metrics).  ``demo
--record DIR`` attaches a flight recorder: every channel is archived to
``DIR`` together with the trained model, the generated configuration and
one incident bundle per alarm, ready for ``incident`` and ``replay``.

``demo --serve PORT`` attaches the diagnosis observatory and serves the
live ops surface (``/health``, ``/metrics``, ``/status``, ``/alarms``,
``/scoreboard``) over HTTP while the run executes; ``--linger S`` keeps
the endpoint up after the run so external scrapers can collect, and
``--scoreboard DIR`` writes the online ground-truth scoreboard as
``BENCH_scoreboard.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .core.errors import ConfigError
from .experiments import (
    ExperimentTask,
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


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--slaves", type=int, default=10, help="slave node count")
    parser.add_argument("--duration", type=float, default=900.0, help="run seconds")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--inject", type=float, default=300.0, help="fault time")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for scenario execution (0 = one per CPU; "
        "results are identical at any worker count)",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace-event file (load in chrome://tracing)",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write the core's self-metrics in Prometheus text format",
    )
    parser.add_argument(
        "--audit", metavar="FILE", default=None,
        help="write the alarm audit trail as JSONL",
    )


def _add_observatory_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--serve", metavar="PORT", type=int, nargs="?", const=0, default=None,
        help="serve the live ops surface (/health /metrics /status "
        "/alarms /scoreboard) on this port while the run executes "
        "(0 or no value = ephemeral port)",
    )
    parser.add_argument(
        "--linger", type=float, default=0.0, metavar="S",
        help="keep the ops surface up S wall seconds after the run "
        "(GET /shutdown ends the wait early)",
    )


def _make_telemetry(args) -> Optional[Telemetry]:
    """An enabled Telemetry when any telemetry flag was given, else None."""
    if args.trace or args.metrics or args.audit:
        return Telemetry(trace=bool(args.trace))
    return None


def _dump_telemetry(telemetry: Optional[Telemetry], args) -> None:
    if telemetry is None:
        return
    if args.trace:
        telemetry.tracer.write_chrome_trace(args.trace)
        print(f"wrote {len(telemetry.tracer.events)} trace events to {args.trace}")
    if args.metrics:
        os.makedirs(os.path.dirname(args.metrics) or ".", exist_ok=True)
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(telemetry.metrics.render_prometheus())
        print(f"wrote metrics exposition to {args.metrics}")
    if args.audit:
        telemetry.audit.write_jsonl(args.audit)
        print(f"wrote {len(telemetry.audit)} audit records to {args.audit}")


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


def _scenario_config(args, fault: Optional[str]) -> ScenarioConfig:
    return ScenarioConfig(
        num_slaves=args.slaves,
        duration_s=args.duration,
        seed=args.seed,
        fault_name=fault,
        inject_time=args.inject,
    )


def cmd_demo(args) -> int:
    config = _scenario_config(args, args.fault)
    telemetry = _make_telemetry(args)
    observatory = None
    server = None
    if args.serve is not None or args.scoreboard is not None:
        from .obsv import Observatory, OpsServer

        observatory = Observatory(telemetry=telemetry)
        telemetry = observatory.telemetry
        if args.serve is not None:
            server = OpsServer(observatory, port=args.serve).start()
            print(f"ops surface listening on {server.url}", flush=True)
    print(f"training black-box model ({args.slaves} slaves)...", flush=True)
    model = shared_model(config, training_duration_s=min(300.0, args.duration))
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
    in_process = (
        telemetry is not None or recorder is not None or observatory is not None
    )
    if args.jobs != 1 and not in_process:
        # Telemetry, flight recording and the observatory need the run
        # in-process; plain demos may go through the experiment runner
        # (same results).
        report = run_tasks(
            [ExperimentTask("demo", config)], jobs=args.jobs, model=model
        )
        result = report.results[0].load()
    else:
        result = run_scenario(
            config,
            model=model,
            telemetry=telemetry,
            recorder=recorder,
            observatory=observatory,
        )
    print()
    print(render_summary(result))
    print()
    print(render_timeline(result))
    _dump_telemetry(telemetry, args)
    if observatory is not None:
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


def cmd_calibrate(args) -> int:
    config = _scenario_config(args, None)
    model = shared_model(config, training_duration_s=min(300.0, args.duration))
    result = figure6(config, model=model, jobs=args.jobs)
    print(result.render())
    print(
        "\nsuggested operating points: bb threshold "
        f"{pick_knee(result.blackbox):.0f}, wb k {pick_knee(result.whitebox):.1f}"
    )
    return 0


def cmd_figure7(args) -> int:
    seeds = tuple(int(s) for s in args.seeds.split(","))
    config = _scenario_config(args, None)
    model = shared_model(config, training_duration_s=min(300.0, args.duration))
    result = figure7(config, seeds=seeds, model=model, jobs=args.jobs)
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
    base = _scenario_config(args, None)
    tasks = table2_matrix(base, faults=faults, trials=args.trials)
    print(
        f"bench matrix: {len(tasks)} tasks "
        f"({len(faults)} fault(s) x {args.trials} trial(s))"
    )
    print(f"training shared black-box model ({args.slaves} slaves)...", flush=True)
    model = shared_model(base, training_duration_s=min(300.0, args.duration))

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


def cmd_table2(args) -> int:
    for row in table2():
        print(f"{row.fault_name:<12} {row.reported_failure}")
        print(f"{'':<12} injected: {row.injected}")
    return 0


def cmd_config(args) -> int:
    nodes = [f"slave{i + 1:02d}" for i in range(args.slaves)]
    print(build_asdf_config_text(nodes, _scenario_config(args, None)))
    return 0


def cmd_lint(args) -> int:
    """Static analysis: configs, module contracts, cost, threading.

    Exit codes: 0 clean (warnings allowed unless ``--strict``), 1 when
    any error-severity diagnostic fires, 2 on usage or I/O problems.
    """
    from .lint import (
        analyze_config,
        check_registry,
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
    # Nothing selected: lint everything (the generated config, every
    # registered module implementation, the static cost estimate, the
    # deployment threading, and every noqa marker in the source).
    lint_all = not args.configs and not (
        args.generated or args.impl or args.cost or args.concurrency
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
        nodes = [f"slave{i + 1:02d}" for i in range(args.slaves)]
        text = build_asdf_config_text(nodes, _scenario_config(args, None))
        config_texts.append((text, "<generated>"))

    for text, file in config_texts:
        diagnostics.extend(analyze_config(text, file=file))

    if args.impl or lint_all:
        diagnostics.extend(check_registry())

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


def cmd_telemetry(args) -> int:
    """Run a monitored scenario with self-instrumentation and summarize."""
    config = _scenario_config(args, args.fault)
    telemetry = Telemetry(trace=args.trace is not None or not args.no_spans)
    print(f"training black-box model ({args.slaves} slaves)...", flush=True)
    model = shared_model(config, training_duration_s=min(300.0, args.duration))
    print(
        f"running instrumented {args.duration:.0f}s with "
        f"{args.fault or 'no fault'}...\n",
        flush=True,
    )
    result = run_scenario(
        config, model=model, keep_handles=True, telemetry=telemetry
    )
    print(telemetry.summary_text())
    if len(telemetry.audit):
        print("\nalarm audit trail:")
        print(
            telemetry.audit.render_text(
                limit=None if (args.tail or args.since is not None) else 20,
                tail=args.tail,
                since=args.since,
            )
        )
    if args.dot:
        os.makedirs(os.path.dirname(args.dot) or ".", exist_ok=True)
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(result.handles.core.to_dot(annotate=True))
        print(f"\nwrote annotated DAG to {args.dot}")
    _dump_telemetry(telemetry, args)
    result.handles.core.close()
    return 0


def cmd_top(args) -> int:
    """Live ANSI dashboard over a monitored scenario as it runs."""
    from .obsv import CLEAR_SCREEN, Observatory, OpsServer, render_top

    config = _scenario_config(args, args.fault)
    observatory = Observatory()
    server = None
    if args.serve is not None:
        server = OpsServer(observatory, port=args.serve).start()
    # Non-TTY stdout (CI logs, pipes): no ANSI escapes, and repainting a
    # log file is noise -- degrade to a single final snapshot.
    tty = sys.stdout.isatty()
    color = not args.no_color and tty
    once = args.once or not tty
    print(f"training black-box model ({args.slaves} slaves)...", flush=True)
    model = shared_model(config, training_duration_s=min(300.0, args.duration))

    last_frame = [float("-inf")]

    def repaint(sim_now: float) -> None:
        if sim_now - last_frame[0] < args.refresh:
            return
        last_frame[0] = sim_now
        frame = render_top(observatory, color=color)
        sys.stdout.write((CLEAR_SCREEN if color else "\n") + frame + "\n")
        sys.stdout.flush()

    run_scenario(
        config,
        model=model,
        observatory=observatory,
        tick_callback=None if once else repaint,
    )
    final = render_top(observatory, color=color)
    if color and not once:
        sys.stdout.write(CLEAR_SCREEN)
    print(final)
    if server is not None:
        print(f"\nops surface on {server.url}")
        _linger(server, args.linger)
        server.stop()
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
    archive = ReplayArchive.load(args.directory)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config_text = fh.read()
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
    if args.names:
        names = [n.strip() for n in args.names.split(",") if n.strip()]
    elif args.name:
        names = [args.name]
    else:
        print("error: cluster node needs --names or --name", file=sys.stderr)
        return 2
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
            f"nodes={entry['nodes']:<4} ({entry['processes']} procs, "
            f"negotiated {entry['negotiated']}): "
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ASDF (DSN 2009) reproduction: online fingerpointing "
        "of performance problems in a simulated Hadoop cluster.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="one monitored fault-injection run")
    _add_scenario_args(demo)
    _add_telemetry_args(demo)
    demo.add_argument(
        "--fault",
        choices=list(FAULT_NAMES),
        default="CPUHog",
        help="fault to inject (Table 2 name)",
    )
    demo.add_argument(
        "--record", metavar="DIR", default=None,
        help="attach a flight recorder and archive the run (channels, "
        "model, config, incident bundles) into DIR",
    )
    _add_observatory_args(demo)
    demo.add_argument(
        "--scoreboard", metavar="DIR", nargs="?", const=".", default=None,
        help="attach the observatory and write BENCH_scoreboard.json "
        "into DIR (default: the working directory)",
    )
    demo.set_defaults(handler=cmd_demo)

    top = commands.add_parser(
        "top",
        help="live ANSI dashboard over a monitored fault-injection run",
    )
    _add_scenario_args(top)
    top.add_argument(
        "--fault",
        choices=list(FAULT_NAMES),
        default="CPUHog",
        help="fault to inject (Table 2 name)",
    )
    top.add_argument(
        "--refresh", type=float, default=15.0,
        help="simulated seconds between dashboard repaints",
    )
    top.add_argument(
        "--once", action="store_true",
        help="skip live repaints; print one final frame after the run",
    )
    top.add_argument(
        "--no-color", action="store_true",
        help="plain text frames (also implied when stdout is not a tty)",
    )
    _add_observatory_args(top)
    top.set_defaults(handler=cmd_top)

    telemetry = commands.add_parser(
        "telemetry",
        help="instrumented run: self-metrics summary, trace, alarm audit",
    )
    _add_scenario_args(telemetry)
    _add_telemetry_args(telemetry)
    telemetry.add_argument(
        "--fault",
        choices=list(FAULT_NAMES),
        default="CPUHog",
        help="fault to inject (Table 2 name); alarms feed the audit trail",
    )
    telemetry.add_argument(
        "--no-spans", action="store_true",
        help="skip span recording (metrics and audit only)",
    )
    telemetry.add_argument(
        "--dot", metavar="FILE", default=None,
        help="write the DAG annotated with run counts and mean latencies",
    )
    telemetry.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="show only the last N alarm audit records",
    )
    telemetry.add_argument(
        "--since", type=float, default=None, metavar="TS",
        help="show only audit records at simulated time >= TS",
    )
    telemetry.set_defaults(handler=cmd_telemetry)

    calibrate = commands.add_parser(
        "calibrate", help="Figure 6 fault-free threshold sweeps"
    )
    _add_scenario_args(calibrate)
    calibrate.set_defaults(handler=cmd_calibrate)

    fig7 = commands.add_parser("figure7", help="per-fault accuracy and latency")
    _add_scenario_args(fig7)
    fig7.add_argument("--seeds", default="7,19", help="comma-separated seeds")
    fig7.set_defaults(handler=cmd_figure7)

    overhead = commands.add_parser("overhead", help="Tables 3 and 4")
    _add_scenario_args(overhead)
    overhead.set_defaults(handler=cmd_overhead)

    catalog = commands.add_parser("table2", help="the fault catalog")
    catalog.set_defaults(handler=cmd_table2)

    bench = commands.add_parser(
        "bench",
        help="run a fault x trial matrix through the parallel experiment "
        "runner and print its walls",
    )
    _add_scenario_args(bench)
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
    _add_scenario_args(config)
    config.set_defaults(handler=cmd_config)

    lint = commands.add_parser(
        "lint",
        help="static analysis: configs vs module contracts, contract vs "
        "implementation, DAG cost, cross-thread races",
    )
    _add_scenario_args(lint)
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
        "--impl", action="store_true",
        help="check registered module implementations against contracts",
    )
    lint.add_argument(
        "--cost", action="store_true",
        help="fold the config DAG through the contracts' cost facts "
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

    def _cluster_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dir", default="out/cluster",
            help="shared state directory (runtime files, logs, stop marker)",
        )
        sub.add_argument(
            "--max-frame-bytes", type=int, default=None,
            help="override the RPC frame-size limit for every daemon "
            "(also settable via ASDF_MAX_FRAME_BYTES)",
        )

    up = cluster_cmds.add_parser(
        "up", help="spawn central + N collection daemons, then supervise",
    )
    _cluster_common(up)
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

    node = cluster_cmds.add_parser(
        "node", help="one node host process (spawned by 'cluster up')",
    )
    _cluster_common(node)
    node.add_argument("--name", default=None, help="single daemon name")
    node.add_argument("--names", default=None,
                      help="comma-separated logical node names this host "
                      "process serves")
    node.add_argument("--seed", type=int, default=0,
                      help="RNG seed for this host's load")
    node.add_argument("--sample-interval", type=float, default=0.5,
                      help="sampler-thread cadence, wall seconds")
    node.set_defaults(handler=cmd_cluster_node)

    central = cluster_cmds.add_parser(
        "central", help="the central analysis daemon",
    )
    _cluster_common(central)
    central.add_argument("--interval", type=float, default=0.5,
                         help="poll interval, wall seconds")
    central.add_argument("--serve", type=int, default=None, metavar="PORT",
                         help="ops HTTP port (default: ephemeral)")
    central.set_defaults(handler=cmd_cluster_central)

    drive = cluster_cmds.add_parser(
        "drive",
        help="measured scenario: sustain, inject, kill + respawn, "
        "write BENCH_cluster.json",
    )
    _cluster_common(drive)
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

    cluster_top = cluster_cmds.add_parser(
        "top", help="terminal dashboard over the federated cluster stats",
    )
    _cluster_common(cluster_top)
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
        # Bad configuration input, not a crash: show the offending line
        # (ConfigError.describe carries the line number and text) and
        # point at the static analyzer for the full report.
        print(f"configuration error: {error.describe()}", file=sys.stderr)
        print(
            "hint: run 'python -m repro lint <config>' for the full "
            "diagnostic report",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
