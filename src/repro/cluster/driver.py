"""The load driver: ``repro cluster drive`` -> ``BENCH_cluster.json``.

Drives a running cluster (started by ``repro cluster up``) through a
measured scenario and emits the bench artifact turning the paper's
simulated Table 3/4 overhead story into measurements of a live
deployment:

1. wait until the central daemon reports samples flowing from every
   collection daemon, then reset the measurement window (``/control/mark``);
2. sustain polling for the measurement period, recording end-to-end
   samples/sec and round-duration backpressure;
3. inject a fault into one node (``/control/inject``) and wait for the
   online peer-deviation alarm, measuring wall-clock alarm latency --
   sample emitted in the faulty daemon's process to indictment in the
   central's, real socket hop included;
4. SIGKILL a *different* collection daemon and wait for the launcher to
   respawn it and the central to reconnect (new pid visible in
   ``/cluster``, samples flowing again), measuring the outage;
5. fetch the stitched cross-process Chrome trace and count traces whose
   spans land in >= 2 distinct pids.

The artifact (format ``asdf-cluster-bench/1``) carries every check's
outcome plus a ``failures`` list; the CLI exits non-zero when it is
non-empty, which is what the CI cluster-smoke job asserts.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

from ..telemetry.tracing import pids_by_trace_id
from .federation import http_get_json
from .state import list_runtimes, pid_alive, request_stop

__all__ = [
    "CLUSTER_BENCH_FORMAT",
    "CLUSTER_SCALE_FORMAT",
    "DriveError",
    "check_cluster_scale_gate",
    "run_drive",
    "run_scale_drive",
]

CLUSTER_BENCH_FORMAT = "asdf-cluster-bench/1"

CLUSTER_SCALE_FORMAT = "asdf-cluster-scale/1"

#: How long to wait for the cluster to publish + start sampling.
READY_TIMEOUT_S = 60.0

#: How long to wait for the post-injection alarm.
ALARM_TIMEOUT_S = 30.0

#: How long to wait for respawn + reconnect after the kill.
RECONNECT_TIMEOUT_S = 30.0


class DriveError(RuntimeError):
    """The cluster never became drivable (setup failure, not a finding)."""


def _central_url(state_dir: str, timeout_s: float = READY_TIMEOUT_S) -> str:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        runtime = list_runtimes(state_dir, role="central").get("central")
        if runtime is not None and pid_alive(runtime.pid):
            return runtime.ops_url
        time.sleep(0.2)
    raise DriveError(f"no live central daemon published in {state_dir}")


def _control(base: str, action: str, **params) -> dict:
    url = f"{base}/control/{action}"
    clean = {k: v for k, v in params.items() if v is not None}
    if clean:
        url += "?" + urlencode(clean)
    doc = http_get_json(url, timeout=10.0)
    if not isinstance(doc, dict):
        raise DriveError(f"bad control response from {url}: {doc!r}")
    return doc


def _stats(base: str) -> dict:
    return _control(base, "stats")


def _wait_until(predicate, timeout_s: float, poll_s: float = 0.25) -> bool:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()


def run_drive(
    state_dir: str,
    out_dir: str,
    sustain_s: float = 5.0,
    inject_node: Optional[str] = None,
    kill_node: Optional[str] = None,
    fault_kind: str = "cpuhog",
    shutdown: bool = False,
) -> dict:
    """Drive the cluster through the measured scenario; returns the bench.

    Writes ``BENCH_cluster.json`` and ``trace_cluster.json`` into
    ``out_dir``.  Raises :class:`DriveError` only when the cluster never
    becomes drivable; scenario-check failures land in the artifact's
    ``failures`` list instead.
    """
    os.makedirs(out_dir, exist_ok=True)
    failures: List[str] = []
    base = _central_url(state_dir)

    # -- readiness: every published node sampling ---------------------------
    def _all_sampling() -> bool:
        nodes = _stats(base).get("nodes", {})
        published = list_runtimes(state_dir, role="node")
        return bool(published) and all(
            nodes.get(name, {}).get("samples", 0) > 0 for name in published
        )

    if not _wait_until(_all_sampling, READY_TIMEOUT_S, poll_s=0.5):
        raise DriveError("collection daemons never started sampling")
    node_names = sorted(list_runtimes(state_dir, role="node"))
    if inject_node is None:
        inject_node = node_names[0]
    if kill_node is None:
        kill_node = node_names[-1] if len(node_names) > 1 else node_names[0]

    # -- phase 1: sustained measurement window ------------------------------
    _control(base, "mark")
    time.sleep(max(0.5, sustain_s))
    sustained = _stats(base)

    # -- phase 2: fault injection -> online alarm ---------------------------
    alarms_before = sustained.get("alarms_total", 0)
    injected_wall = time.time()
    _control(base, "inject", node=inject_node, kind=fault_kind, intensity=1.0)

    def _alarmed() -> bool:
        return _stats(base).get("alarms_total", 0) > alarms_before

    if not _wait_until(_alarmed, ALARM_TIMEOUT_S):
        failures.append(
            f"no alarm within {ALARM_TIMEOUT_S}s of injecting "
            f"{fault_kind} into {inject_node}"
        )
    alarmed_stats = _stats(base)
    new_alarms = [
        alarm for alarm in alarmed_stats.get("alarms", [])
        if alarm.get("time_wall", 0.0) >= injected_wall
    ]
    detection_s = (
        round(new_alarms[0]["time_wall"] - injected_wall, 3)
        if new_alarms else None
    )
    if new_alarms and new_alarms[0].get("node") != inject_node:
        failures.append(
            f"alarm indicted {new_alarms[0].get('node')}, "
            f"expected {inject_node}"
        )

    # -- phase 3: kill a daemon -> respawn + reconnect ----------------------
    victim = list_runtimes(state_dir, role="node").get(kill_node)
    reconnect: Dict[str, object] = {"killed_node": kill_node}
    if victim is None:
        failures.append(f"kill target {kill_node} not published")
    else:
        reconnect["killed_pid"] = victim.pid
        killed_wall = time.time()
        try:
            os.kill(victim.pid, signal.SIGKILL)
        except OSError as exc:
            failures.append(f"could not kill {kill_node}: {exc}")

        def _respawned() -> bool:
            fresh = list_runtimes(state_dir, role="node").get(kill_node)
            if fresh is None or fresh.pid == victim.pid:
                return False
            if not pid_alive(fresh.pid):
                return False
            peer = _stats(base).get("nodes", {}).get(kill_node, {})
            return bool(peer.get("reconnects", 0)) and bool(
                peer.get("connected")
            )

        if _wait_until(_respawned, RECONNECT_TIMEOUT_S):
            fresh = list_runtimes(state_dir, role="node")[kill_node]
            reconnect.update({
                "respawned_pid": fresh.pid,
                "reconnected": True,
                "downtime_s": round(time.time() - killed_wall, 3),
            })
        else:
            reconnect.update({"reconnected": False})
            failures.append(
                f"{kill_node} did not respawn+reconnect within "
                f"{RECONNECT_TIMEOUT_S}s of SIGKILL"
            )

    # -- phase 4: stitched cross-process trace ------------------------------
    _control(base, "clear")
    trace_doc = _control(base, "trace")
    trace_path = os.path.join(out_dir, "trace_cluster.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(trace_doc, fh)
    by_trace = pids_by_trace_id(trace_doc)
    multi_pid = {
        trace_id: sorted(pids)
        for trace_id, pids in by_trace.items() if len(pids) >= 2
    }
    distinct_pids = sorted({
        pid for pids in by_trace.values() for pid in pids
    })
    if not multi_pid:
        failures.append(
            "no trace_id with spans from >= 2 distinct pids in the "
            "stitched trace"
        )

    # -- artifact -----------------------------------------------------------
    final = _stats(base)
    bench = {
        "format": CLUSTER_BENCH_FORMAT,
        "generated_wall": time.time(),
        "nodes": len(node_names),
        "sustain_s": sustain_s,
        "samples": {
            "measured": final.get("samples_since_mark"),
            "per_sec": final.get("samples_per_sec"),
            "total": final.get("samples_total"),
        },
        "alarm_latency_wall_s": final.get("alarm_wall_latency_s"),
        "alarms_total": final.get("alarms_total"),
        "fault": {
            "node": inject_node,
            "kind": fault_kind,
            "injected_wall": injected_wall,
            "detection_s": detection_s,
        },
        "reconnect": reconnect,
        "backpressure": final.get("backpressure"),
        "rpc": {
            name: {
                "bytes_sent": peer.get("rpc_bytes_sent"),
                "bytes_received": peer.get("rpc_bytes_received"),
                "watermark_lag_s": peer.get("watermark_lag_s"),
            }
            for name, peer in sorted(final.get("nodes", {}).items())
        },
        "trace": {
            "file": os.path.basename(trace_path),
            "multi_pid_traces": len(multi_pid),
            "distinct_pids": distinct_pids,
        },
        "failures": failures,
        "ok": not failures,
    }
    bench_path = os.path.join(out_dir, "BENCH_cluster.json")
    with open(bench_path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if shutdown:
        request_stop(state_dir, reason="drive complete")
    return bench


# -- the scale drive: ``repro cluster drive --nodes 3,10,25`` ----------------

#: Mean-round denominators below this are scheduler noise, not
#: transport: the scaling ratio's denominator is floored here so a
#: 2 ms -> 6 ms "3x" at trivial sizes doesn't fail a sub-linear sweep.
ROUND_RATIO_FLOOR_S = 0.01

#: Hard ceiling on mean-round growth smallest -> largest node count.
ROUND_RATIO_MAX = 2.0

#: Gate slack on samples/sec vs the committed trajectory (shared-runner
#: noise at cluster scale is large: dozens of real processes on 2 cores).
SCALE_GATE_SLACK = 0.4


def _ready_timeout_s(nodes: int) -> float:
    """Startup budget: host processes import numpy + build a vec fleet."""
    return max(READY_TIMEOUT_S, 3.0 * nodes)


def measure_deployment(
    state_dir: str,
    nodes: int,
    per_host: int = 8,
    interval_s: float = 0.25,
    sustain_s: float = 6.0,
    seed: int = 1,
    inject: bool = True,
    trace_out: Optional[str] = None,
) -> dict:
    """Boot one in-process deployment, sustain, measure, tear down.

    Returns one trajectory entry: throughput (samples/sec end to end),
    round-duration backpressure (mean/max, pipelined so ~max(node RTT)),
    measured payload bytes per node per round, and -- when ``inject``
    -- wall-clock alarm latency for one
    cpuhog.  ``trace_out``, when given, fetches the stitched
    cross-process Chrome trace before teardown and writes it there.
    Raises :class:`DriveError` if the deployment never becomes
    measurable; scenario soft-failures land in the entry's ``failures``.
    """
    from .launcher import ClusterLauncher, node_name

    if os.path.isdir(state_dir):
        shutil.rmtree(state_dir)  # stale runtime files would be adopted
    launcher = ClusterLauncher(
        state_dir, nodes=nodes, interval_s=interval_s, seed=seed,
        per_host=per_host,
    )
    failures: List[str] = []
    entry: Dict[str, Any] = {
        "nodes": nodes,
        "per_host": launcher.per_host,
        "processes": len(launcher.host_groups()) + 1,
        "failures": failures,
    }
    try:
        launcher.up()
        timeout_s = _ready_timeout_s(nodes)
        if not launcher.wait_ready(timeout_s=timeout_s):
            raise DriveError(
                f"{nodes}-node deployment never published its runtimes"
            )
        base = _central_url(state_dir)
        expected = {node_name(i) for i in range(1, nodes + 1)}

        def _all_sampling() -> bool:
            peers = _stats(base).get("nodes", {})
            return expected <= set(peers) and all(
                peers[name].get("samples", 0) > 0 for name in expected
            )

        if not _wait_until(_all_sampling, timeout_s, poll_s=0.5):
            raise DriveError(
                f"{nodes}-node deployment never started sampling"
            )

        _control(base, "mark")
        time.sleep(max(1.0, sustain_s))
        stats = _stats(base)
        peers = stats.get("nodes", {})
        back = stats.get("backpressure") or {}
        per_node = [
            peer.get("bytes_per_round") for peer in peers.values()
            if isinstance(peer.get("bytes_per_round"), (int, float))
        ]
        rtts = sorted(
            peer.get("rtt_s") for peer in peers.values()
            if isinstance(peer.get("rtt_s"), (int, float))
        )
        entry.update({
            "samples_per_sec": stats.get("samples_per_sec"),
            "samples_measured": stats.get("samples_since_mark"),
            "rounds_measured": stats.get("rounds_since_mark"),
            "mean_round_s": back.get("mean_round_s"),
            "max_round_s": back.get("max_round_s"),
            "rounds_late": back.get("rounds_late"),
            "bytes_per_node_round": (
                round(sum(per_node) / len(per_node), 1) if per_node else None
            ),
            "max_rtt_s": rtts[-1] if rtts else None,
            "poll_errors": stats.get("poll_errors"),
        })
        if not entry["samples_measured"]:
            failures.append(f"nodes={nodes}: no samples in sustain window")

        if inject:
            target = sorted(expected)[0]
            alarms_before = stats.get("alarms_total", 0)
            injected_wall = time.time()
            _control(
                base, "inject", node=target, kind="cpuhog", intensity=1.0
            )

            def _alarmed() -> bool:
                return _stats(base).get("alarms_total", 0) > alarms_before

            if _wait_until(_alarmed, ALARM_TIMEOUT_S):
                post = _stats(base)
                fresh = [
                    alarm for alarm in post.get("alarms", [])
                    if alarm.get("time_wall", 0.0) >= injected_wall
                ]
                entry["detection_s"] = (
                    round(fresh[0]["time_wall"] - injected_wall, 3)
                    if fresh else None
                )
                entry["alarm_wall_latency_s"] = (
                    post.get("alarm_wall_latency_s") or {}
                ).get("p50")
            else:
                entry["detection_s"] = None
                entry["alarm_wall_latency_s"] = None
                failures.append(
                    f"nodes={nodes}: no alarm within {ALARM_TIMEOUT_S}s "
                    f"of injecting cpuhog into {target}"
                )

        if trace_out:
            try:
                trace_doc = _control(base, "trace")
                with open(trace_out, "w", encoding="utf-8") as fh:
                    json.dump(trace_doc, fh)
                multi_pid = sum(
                    1 for pids in pids_by_trace_id(trace_doc).values()
                    if len(pids) >= 2
                )
                entry["trace_file"] = os.path.basename(trace_out)
                entry["trace_multi_pid"] = multi_pid
            except (DriveError, OSError, ValueError) as exc:
                failures.append(
                    f"nodes={nodes}: stitched trace collection failed: {exc}"
                )
        return entry
    finally:
        launcher.shutdown()


def run_scale_drive(
    out_dir: str,
    node_counts: Sequence[int] = (3, 10, 25),
    per_host: int = 8,
    interval_s: float = 0.25,
    sustain_s: float = 6.0,
    seed: int = 1,
    state_root: Optional[str] = None,
) -> dict:
    """Sweep deployments across node counts; emit the scale trajectory.

    For each count a full cluster (launcher + central + packed node
    hosts) is booted, sustained, measured and torn down.

    Writes ``BENCH_cluster.json`` (format ``asdf-cluster-scale/1``)
    into ``out_dir`` and returns it.
    """
    counts = sorted({int(count) for count in node_counts})
    if not counts:
        raise DriveError("scale drive needs at least one node count")
    os.makedirs(out_dir, exist_ok=True)
    state_root = state_root or os.path.join(out_dir, "scale_state")
    failures: List[str] = []
    sweep: List[dict] = []
    for count in counts:
        entry = measure_deployment(
            os.path.join(state_root, f"n{count:03d}"),
            count, per_host=per_host, interval_s=interval_s,
            sustain_s=sustain_s, seed=seed,
            trace_out=(
                os.path.join(out_dir, "trace_cluster_scale.json")
                if count == counts[-1] else None
            ),
        )
        sweep.append(entry)
        failures.extend(entry["failures"])

    smallest, largest = sweep[0], sweep[-1]
    ratio: Optional[float] = None
    if (isinstance(smallest.get("mean_round_s"), (int, float))
            and isinstance(largest.get("mean_round_s"), (int, float))):
        ratio = round(
            largest["mean_round_s"]
            / max(smallest["mean_round_s"], ROUND_RATIO_FLOOR_S),
            3,
        )
    round_scaling = {
        "smallest_nodes": smallest["nodes"],
        "largest_nodes": largest["nodes"],
        "smallest_mean_round_s": smallest.get("mean_round_s"),
        "largest_mean_round_s": largest.get("mean_round_s"),
        "ratio_floor_s": ROUND_RATIO_FLOOR_S,
        "ratio": ratio,
    }
    if ratio is None:
        failures.append("round scaling unmeasured (missing mean_round_s)")
    elif len(counts) > 1 and ratio > ROUND_RATIO_MAX:
        failures.append(
            f"mean round grew {ratio}x from {smallest['nodes']} to "
            f"{largest['nodes']} nodes (ceiling {ROUND_RATIO_MAX}x: "
            f"pipelined rounds must track the slowest node, not the sum)"
        )

    bench = {
        "format": CLUSTER_SCALE_FORMAT,
        "generated_wall": time.time(),
        "node_counts": counts,
        "interval_s": interval_s,
        "sustain_s": sustain_s,
        "per_host": per_host,
        "sweep": sweep,
        "round_scaling": round_scaling,
        "failures": failures,
        "ok": not failures,
    }
    bench_path = os.path.join(out_dir, "BENCH_cluster.json")
    with open(bench_path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return bench


def check_cluster_scale_gate(
    bench: dict,
    baseline_path: Optional[str] = None,
    slack: float = SCALE_GATE_SLACK,
) -> Tuple[bool, str]:
    """CI gate over a scale trajectory.

    Asserts the sweep's own invariants held (mean round growth within
    :data:`ROUND_RATIO_MAX`), and --
    when a committed baseline trajectory is given -- that samples/sec
    has not regressed below ``slack`` times the baseline at any node
    count both sweeps share.  A baseline that shares no measured node
    count with the sweep fails: a gate that compared nothing has not
    passed.
    """
    problems: List[str] = []
    if bench.get("format") != CLUSTER_SCALE_FORMAT:
        return False, (
            f"cluster scale gate: unexpected format {bench.get('format')!r}"
        )
    problems.extend(bench.get("failures") or [])
    counts = bench.get("node_counts") or []
    compared: List[int] = []
    if baseline_path is not None:
        try:
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as error:
            return False, (
                f"cluster scale gate: cannot read baseline "
                f"{baseline_path}: {error}"
            )
        base_rates = {}
        if baseline.get("format") == CLUSTER_SCALE_FORMAT:
            base_rates = {
                entry["nodes"]: entry.get("samples_per_sec")
                for entry in baseline.get("sweep", [])
            }
        for entry in bench.get("sweep", []):
            base = base_rates.get(entry["nodes"])
            rate = entry.get("samples_per_sec")
            if not base or rate is None:
                continue
            compared.append(entry["nodes"])
            floor = base * slack
            if rate < floor:
                problems.append(
                    f"samples/sec at {entry['nodes']} nodes regressed: "
                    f"{rate} < {floor:.1f} "
                    f"(baseline {base} x slack {slack})"
                )
        if not compared:
            problems.append(
                f"baseline {baseline_path} shares no measured node count "
                f"with nodes={counts}: nothing was compared"
            )
    if problems:
        return False, "cluster scale gate: " + "; ".join(problems)
    against = (
        f"samples/sec held against the baseline at {len(compared)} node "
        f"count(s) {compared}" if baseline_path is not None
        else "no baseline given"
    )
    return True, f"cluster scale gate: ok at nodes={counts}, {against}"
