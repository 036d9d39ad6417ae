"""The central analysis daemon: poll, detect, federate, serve.

The live-cluster counterpart of the control node in the paper's
deployment: one process holding an RPC client to every collection
daemon, polling each node once per interval over real sockets, running
an *online peer-deviation detector* over the returned samples, and
serving the federated ops surface.

The detector is deliberately the simplest credible analysis -- each
node's busy fraction (``100 - cpu_idle_pct``) is compared with the
median across peers; a node deviating by more than the threshold for
``k`` consecutive rounds is indicted -- because the subject of this
module is the *deployment*: real processes, real sockets, real
wall-clock alarm latency.  Every poll carries a fresh
:class:`~repro.rpc.TraceContext`, so the client span recorded here and
the serve span recorded inside the collection daemon stitch into one
cross-process trace; every returned sample is stamped into the
:class:`~repro.obsv.LatencyTracer` with its measured socket hop, so
alarm records split end-to-end latency into transport and analysis.

Threading: the poll loop owns the RPC clients exclusively.  The ops
HTTP handlers (running on daemon threads) interact with it only through
an atomically-replaced stats snapshot and a command queue drained at
the top of every round.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from typing import Any, Dict, List, Optional

from ..analysis.metrics import Alarm
from ..obsv import Observatory, OpsServer, percentile
from ..rpc import MultiPoller, ProtocolError, RemoteError, RpcClient, TraceContext
from ..telemetry import Telemetry
from ..telemetry.tracing import stitch_chrome_traces
from .federation import MetricsFederator, http_get_json
from .state import DaemonRuntime, list_runtimes, stop_requested, write_runtime

__all__ = ["CentralDaemon", "run_central"]

#: Busy-percent deviation from the peer median that counts as anomalous.
DEVIATION_THRESHOLD_PCT = 30.0

#: Consecutive anomalous rounds before a node is indicted.
K_ROUNDS = 3

#: Alarm wall-latency observations kept for percentile reporting.
MAX_LATENCIES = 4096

#: Recent alarms kept in the stats snapshot.
MAX_ALARMS = 64

#: Buffered windows drained per node per round (``poll_many`` batch).
MAX_WINDOWS_PER_POLL = 32


class _NodePeer:
    """The central's view of one collection daemon."""

    __slots__ = (
        "name", "runtime", "client", "busy", "streak", "samples",
        "last_emit_wall", "reconnects", "errors", "ever_connected",
        "mark_tx", "mark_rx", "rtt_s",
    )

    def __init__(self, name: str, runtime: DaemonRuntime) -> None:
        self.name = name
        self.runtime = runtime
        self.client: Optional[RpcClient] = None
        self.busy: Optional[float] = None
        self.streak = 0
        self.samples = 0
        self.last_emit_wall: Optional[float] = None
        self.reconnects = 0
        self.errors = 0
        self.ever_connected = False
        #: Payload-byte totals at the last measurement mark, for
        #: bytes-per-round accounting (Table 4 at cluster scale).
        self.mark_tx = 0
        self.mark_rx = 0
        self.rtt_s: Optional[float] = None


class CentralDaemon:
    """Poll loop + detector + federated ops surface, one per cluster."""

    def __init__(
        self,
        state_dir: str,
        interval_s: float = 0.5,
        deviation_pct: float = DEVIATION_THRESHOLD_PCT,
        k_rounds: int = K_ROUNDS,
        ops_port: int = 0,
        name: str = "central",
    ) -> None:
        self.state_dir = state_dir
        self.interval_s = interval_s
        self.deviation_pct = deviation_pct
        self.k_rounds = k_rounds
        self.name = name
        self.telemetry = Telemetry(trace=True)
        self.telemetry.tracer.process_name = name
        self.observatory = Observatory(telemetry=self.telemetry)
        self.federator = MetricsFederator(state_dir, self)
        self.ops = OpsServer(
            self.observatory, port=ops_port, cluster=self.federator
        )
        self._peers: Dict[str, _NodePeer] = {}
        self._poller = MultiPoller()
        self._commands: "queue.Queue[dict]" = queue.Queue(maxsize=256)
        self._stats: dict = {}
        self._alarms: List[dict] = []
        self._latencies: List[float] = []
        self.rounds = 0
        self.samples_total = 0
        self.poll_errors = 0
        self.reconnects = 0
        self._mark_wall = time.time()
        self._samples_since_mark = 0
        self._rounds_since_mark = 0
        self._round_durations: List[float] = []
        self._rounds_late = 0

    # -- ops-surface contract (called from HTTP handler threads) -------------

    def stats_obj(self) -> dict:
        """The atomically-replaced stats snapshot (thread-safe read)."""
        return self._stats or {"rounds": 0, "nodes": {}}

    def enqueue(self, command: dict) -> bool:
        try:
            self._commands.put_nowait(command)
        except queue.Full:
            return False
        return True

    def own_metrics_snapshot(self) -> dict:
        return self.telemetry.metrics.snapshot()

    def collect_trace(self) -> dict:
        """Scrape every node's Chrome trace and stitch with our own.

        Served directly from the handler thread: scraping goes over
        HTTP to each node's own ops server, and our tracer's event list
        is grow-only, so no poll-loop state is touched.
        """
        docs = [self.telemetry.tracer.to_chrome_trace()]
        seen_ops = set()
        for runtime in list_runtimes(self.state_dir, role="node").values():
            if runtime.ops_url in seen_ops:
                continue  # logical nodes sharing one host share one tracer
            seen_ops.add(runtime.ops_url)
            try:
                doc = http_get_json(f"{runtime.ops_url}/trace")
            except (OSError, ValueError):
                continue
            if isinstance(doc, dict):
                docs.append(doc)
        return stitch_chrome_traces(docs)

    # -- peer management ------------------------------------------------------

    def _connect_peer(self, peer: _NodePeer) -> bool:
        """(Re)establish the RPC connection to ``peer.runtime``.

        Any successful establishment after the first counts as a
        reconnect -- that covers both a mid-call drop and a respawned
        daemon adopted from a fresh runtime file one round later.
        """
        try:
            peer.client = RpcClient(
                peer.runtime.host, peer.runtime.rpc_port,
                client_name=self.name, telemetry=self.telemetry,
                timeout=5.0,
            )
        except (OSError, ProtocolError):
            peer.errors += 1
            return False
        # A reconnected client starts its byte counters from zero; the
        # since-mark deltas must not go negative.
        peer.mark_tx = 0
        peer.mark_rx = 0
        if peer.ever_connected:
            peer.reconnects += 1
            self.reconnects += 1
        peer.ever_connected = True
        return True

    def _refresh_peers(self) -> None:
        """Adopt new/respawned daemons from the state directory."""
        published = list_runtimes(self.state_dir, role="node")
        for name, runtime in published.items():
            peer = self._peers.get(name)
            if peer is None:
                peer = _NodePeer(name, runtime)
                self._peers[name] = peer
            elif (runtime.pid != peer.runtime.pid
                    or runtime.rpc_port != peer.runtime.rpc_port):
                # The daemon was respawned: drop the dead connection and
                # reconnect to the freshly published address.
                if peer.client is not None:
                    peer.client.close()
                    peer.client = None
                peer.runtime = runtime
            if peer.client is None:
                self._connect_peer(peer)

    def _handle_poll_failure(self, peer: _NodePeer) -> None:
        """A poll died mid-call: reconnect to the published address."""
        self.poll_errors += 1
        peer.errors += 1
        peer.busy = None
        runtime = list_runtimes(self.state_dir, role="node").get(peer.name)
        if runtime is not None:
            peer.runtime = runtime
        if peer.client is not None:
            peer.client.close()
            peer.client = None
        self._connect_peer(peer)

    # -- command handling ------------------------------------------------------

    def _drain_commands(self) -> None:
        while True:
            try:
                command = self._commands.get_nowait()
            except queue.Empty:
                return
            action = command.get("action")
            if action == "mark":
                self._mark_wall = time.time()
                self._samples_since_mark = 0
                self._rounds_since_mark = 0
                self._latencies = []
                self._round_durations = []
                self._rounds_late = 0
                for peer in self._peers.values():
                    counter = (
                        peer.client.counter if peer.client is not None else None
                    )
                    peer.mark_tx = counter.tx_payload if counter else 0
                    peer.mark_rx = counter.rx_payload if counter else 0
                continue
            node = command.get("node") or ""
            targets = [
                peer for peer in self._peers.values()
                if peer.client is not None and (not node or peer.name == node)
            ]
            for peer in targets:
                try:
                    if action == "inject":
                        peer.client.call(
                            "inject", kind=command.get("kind", "cpuhog"),
                            intensity=command.get("intensity", 1.0),
                        )
                    elif action == "clear":
                        peer.client.call("clear")
                except (ProtocolError, RemoteError, ConnectionError, OSError):
                    self._handle_poll_failure(peer)

    # -- the poll round --------------------------------------------------------

    def round(self) -> None:
        """One pipelined collection + detection round across every peer.

        Every connected peer gets one ``poll_many`` request in flight
        simultaneously; the selectors-based poller drains responses in
        arrival order, so round time tracks the *slowest* node, not the
        sum of all of them.
        """
        round_started = time.perf_counter()
        self._drain_commands()
        self._refresh_peers()
        now = time.time()
        trace = TraceContext.new_root(origin=f"{self.name}@pid{os.getpid()}")
        request = {"now": now, "max_windows": MAX_WINDOWS_PER_POLL}
        calls = {
            peer.name: (peer.client, "poll_many", request)
            for peer in self._peers.values() if peer.client is not None
        }
        outcomes = self._poller.poll(
            calls, trace=trace,
            timeout_s=max(2.0, self.interval_s * 8.0),
        )
        for name, outcome in outcomes.items():
            peer = self._peers.get(name)
            if peer is None:
                continue
            if outcome.error is not None:
                self._handle_poll_failure(peer)
                continue
            peer.rtt_s = outcome.rtt_s
            self._ingest(peer, outcome.result, now)
        self._detect(now)
        duration = time.perf_counter() - round_started
        self._round_durations.append(duration)
        if len(self._round_durations) > MAX_LATENCIES:
            del self._round_durations[: -MAX_LATENCIES // 2]
        if duration > self.interval_s:
            self._rounds_late += 1
        if self.telemetry.tracer.enabled:
            self.telemetry.tracer.complete(
                "round", "cluster", round_started, duration,
                track="central", **trace.span_args(),
            )
        self.rounds += 1
        self._rounds_since_mark += 1
        self._publish_stats()

    def _ingest(self, peer: _NodePeer, batch: Any, now: float) -> None:
        """Fold one ``poll_many`` window batch into the peer's state;
        a malformed batch off the wire is dropped."""
        if not isinstance(batch, dict):
            return
        windows = [w for w in batch.get("windows", ()) if isinstance(w, dict)]
        if not windows:
            return
        arrival_wall = time.time()
        arrival_perf = time.perf_counter()
        for window in windows:
            emit_wall = window.get("emit_wall")
            hop = (
                max(0.0, arrival_wall - float(emit_wall))
                if isinstance(emit_wall, (int, float)) else None
            )
            self.observatory.tracer.note_remote_write(
                f"collect:{peer.name}",
                sim=float(window.get("timestamp", now)),
                wall=arrival_perf,
                hop_wall_s=hop,
            )
            peer.samples += 1
            self.samples_total += 1
            self._samples_since_mark += 1
        newest = windows[-1]
        emit_wall = newest.get("emit_wall")
        peer.last_emit_wall = (
            float(emit_wall)
            if isinstance(emit_wall, (int, float)) else arrival_wall
        )
        node_metrics = newest.get("node") or {}
        peer.busy = 100.0 - float(node_metrics.get("cpu_idle_pct", 100.0))

    def _detect(self, now: float) -> None:
        """Peer-deviation detection over this round's busy readings."""
        readings = {
            peer.name: peer.busy
            for peer in self._peers.values() if peer.busy is not None
        }
        if len(readings) < 3:
            return  # a median over <3 peers indicts nobody credibly
        ordered = sorted(readings.values())
        median = ordered[len(ordered) // 2]
        for peer in self._peers.values():
            if peer.busy is None:
                continue
            deviating = (peer.busy - median) > self.deviation_pct
            peer.streak = peer.streak + 1 if deviating else 0
            if peer.streak < self.k_rounds:
                continue
            # End-to-end wall latency: sample emitted at the remote
            # daemon -> indictment here, socket hop included.
            emit = peer.last_emit_wall
            wall_latency = max(0.0, time.time() - emit) if emit else None
            if wall_latency is not None:
                self._latencies.append(wall_latency)
                if len(self._latencies) > MAX_LATENCIES:
                    del self._latencies[: -MAX_LATENCIES // 2]
            if peer.streak == self.k_rounds:
                alarm = Alarm(
                    time=now, node=peer.name, source="peer-deviation",
                    detail=(
                        f"busy {peer.busy:.1f}% vs median {median:.1f}% "
                        f"for {peer.streak} rounds"
                    ),
                    via=(f"collect:{peer.name}",),
                )
                self.observatory.tracer.note_write(
                    f"detect:{peer.name}", sim=now, wall=time.perf_counter()
                )
                record = self.observatory.tracer.record_alarm(
                    alarm,
                    delivered=(f"collect:{peer.name}", f"detect:{peer.name}"),
                    sim_now=now,
                )
                if self.telemetry.enabled and record.measured:
                    self.telemetry.record_alarm_latency(
                        "cluster", "total",
                        record.total_sim_s, record.total_wall_s,
                    )
                self._alarms.append({
                    "time_wall": now,
                    "node": peer.name,
                    "source": alarm.source,
                    "detail": alarm.detail,
                    "wall_latency_s": wall_latency,
                    "remote_hop_wall_s": record.remote_hop_wall_s,
                })
                if len(self._alarms) > MAX_ALARMS:
                    del self._alarms[: -MAX_ALARMS // 2]

    def _publish_stats(self) -> None:
        now = time.time()
        elapsed = max(1e-9, now - self._mark_wall)
        durations = self._round_durations
        rounds_marked = max(1, self._rounds_since_mark)
        nodes: Dict[str, Any] = {}
        bytes_per_round_total = 0.0
        for peer in self._peers.values():
            counter = peer.client.counter if peer.client is not None else None
            bytes_per_round = (
                round(
                    ((counter.tx_payload - peer.mark_tx)
                     + (counter.rx_payload - peer.mark_rx)) / rounds_marked,
                    1,
                )
                if counter else None
            )
            if bytes_per_round is not None:
                bytes_per_round_total += bytes_per_round
            nodes[peer.name] = {
                "connected": peer.client is not None,
                "busy_pct": peer.busy,
                "streak": peer.streak,
                "samples": peer.samples,
                "reconnects": peer.reconnects,
                "errors": peer.errors,
                "watermark_lag_s": (
                    round(now - peer.last_emit_wall, 3)
                    if peer.last_emit_wall is not None else None
                ),
                "rpc_bytes_sent": counter.tx_payload if counter else 0,
                "rpc_bytes_received": counter.rx_payload if counter else 0,
                "bytes_per_round": bytes_per_round,
                "rtt_s": round(peer.rtt_s, 6) if peer.rtt_s is not None else None,
            }
        latencies = list(self._latencies)
        # Ops handler threads read self._stats once and see the old or
        # the new dict, whole -- a reference swap needs no lock.
        self._stats = {  # fpt: noqa[FPT401] -- atomic reference swap
            "role": "central",
            "pid": os.getpid(),
            "now_wall": now,
            "rounds": self.rounds,
            "interval_s": self.interval_s,
            "samples_total": self.samples_total,
            "samples_since_mark": self._samples_since_mark,
            "mark_wall": self._mark_wall,
            "samples_per_sec": round(self._samples_since_mark / elapsed, 3),
            "rounds_since_mark": self._rounds_since_mark,
            "bytes_per_round_total": round(bytes_per_round_total, 1),
            "poll_errors": self.poll_errors,
            "reconnects": self.reconnects,
            "alarms_total": len(self._alarms),
            "alarms": self._alarms[-10:],
            "alarm_wall_latency_s": {
                "count": len(latencies),
                "p50": percentile(latencies, 50.0),
                "p90": percentile(latencies, 90.0),
                "p99": percentile(latencies, 99.0),
            },
            "backpressure": {
                "round_interval_s": self.interval_s,
                "mean_round_s": (
                    round(sum(durations) / len(durations), 6)
                    if durations else None
                ),
                "max_round_s": round(max(durations), 6) if durations else None,
                "rounds_late": self._rounds_late,
            },
            "nodes": nodes,
        }

    # -- lifecycle -------------------------------------------------------------

    def publish(self) -> DaemonRuntime:
        runtime = DaemonRuntime(
            role="central", name=self.name, pid=os.getpid(),
            host=self.ops.host, rpc_port=0, ops_port=self.ops.port,
            started_wall=time.time(),
        )
        write_runtime(self.state_dir, runtime)
        return runtime

    def close(self) -> None:
        for peer in self._peers.values():
            if peer.client is not None:
                peer.client.close()
                peer.client = None
        self.ops.stop()


def run_central(state_dir: str, interval_s: float = 0.5,
                ops_port: int = 0) -> int:
    """The ``repro cluster central`` entrypoint: poll until stopped."""
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal API
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    central = CentralDaemon(state_dir, interval_s=interval_s, ops_port=ops_port)
    central.ops.start()
    central.publish()
    try:
        while not stop.is_set():
            if (central.ops.shutdown_requested.is_set()
                    or stop_requested(state_dir)):
                break
            started = time.perf_counter()
            central.round()
            remaining = interval_s - (time.perf_counter() - started)
            if remaining > 0:
                stop.wait(remaining)
    finally:
        central.close()
    return 0
