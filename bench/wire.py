"""``wire2``: transport only -- codec v2, server threads, the selector loop.

Two buffered ``ClusterNodeDaemon`` share one ``FleetLoad``; each sits
behind an ``RpcServer`` on 127.0.0.1 and is polled by its own
``RpcClient`` through one ``MultiPoller``.  The harness plays the node's
sampler on a virtual clock (``advance_to`` + ``buffer_sample``): that is
load generation and is not timed.  The timed section is the pipelined
``poll_many`` round.  Rounds alternate between 1 and 16 buffered windows
per peer, so both the per-round and the per-window cost are exercised.
An op is one peer poll.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from calib import Calibrator, percentile, stamp
from harness import Repeat, GcWatch, repeat_cost, scenario_seed, timed
from spans import ROOT, SpanRecorder
from spec import repeats_for

from repro.cluster import FleetLoad
from repro.rpc import (
    CODEC_BINARY,
    ClusterNodeDaemon,
    MultiPoller,
    RpcClient,
    RpcServer,
    decode_message,
    encode_response_frame,
)

POLL_TIMEOUT_S = 5.0
MAX_WINDOWS = 32


def check_outcome(outcome: Any, batch: int, last_ts: float) -> Optional[str]:
    """Why this peer poll failed, or ``None``."""
    if outcome.error is not None:
        return f"poll error: {outcome.error}"
    windows = outcome.result["windows"]
    if len(windows) != batch:
        return f"{len(windows)} windows, expected {batch}"
    for window in windows:
        if not window["timestamp"] > last_ts:
            return "timestamps do not increase"
        last_ts = window["timestamp"]
        if not all(math.isfinite(value) for value in window["node"].values()):
            return "non-finite metric"
    return None


class WireWorkload:
    def __init__(self, sizes: Dict[str, Any], seed: int, cal: Calibrator,
                 tmp_dir: str) -> None:
        self.sizes = sizes
        self.scenario = scenario_seed(sizes, seed)
        self.cal = cal
        self.servers: Dict[str, RpcServer] = {}
        self.clients: Dict[str, RpcClient] = {}
        self.allowed_cpus = None

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        # The poller and the server threads share one CPU.  On this
        # 2-vCPU guest a wake-up that crosses CPUs doubles the CPU time
        # of a poll, and whether the kernel spreads the threads changes
        # from one hour to the next; threads inherit the affinity.
        if self.allowed_cpus is None and hasattr(os, "sched_setaffinity"):
            self.allowed_cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(self.allowed_cpus)})
        names = [f"node{i:02d}" for i in range(self.sizes["peers"])]
        self.fleet = FleetLoad(names, seed=self.scenario)
        self.daemons = {
            name: ClusterNodeDaemon(name, self.fleet.view(name), buffered=True)
            for name in names
        }
        self.connect_s: List[float] = []
        for name, daemon in self.daemons.items():
            server = RpcServer(daemon, f"node@{name}")
            server.start()
            self.servers[name] = server
            host, port = server.address
            started = time.perf_counter()
            self.clients[name] = RpcClient(host, port, client_name="bench")
            self.connect_s.append(time.perf_counter() - started)
        self.poller = MultiPoller()
        # One fleet tick per buffered window keeps load generation, which
        # is not what this workload measures, as cheap as it can be.
        self.window_s = self.fleet.tick_s
        self.now = 1000.0
        self.last_ts = {name: -math.inf for name in names}
        # Prime: the first advance anchors the virtual clock, the first
        # collection only takes the samplers' baseline snapshot.
        self.fleet.advance_to(self.now)
        for daemon in self.daemons.values():
            daemon.buffer_sample(self.now)
        for _ in range(self.sizes["warm_rounds"]):
            for batch in self.sizes["batches"]:
                self._round(batch, None)
                self.cal.maybe_slice()
        self.cal.take_events()

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        for server in self.servers.values():
            server.stop()
        self.clients.clear()
        self.servers.clear()
        if self.allowed_cpus is not None:
            os.sched_setaffinity(0, self.allowed_cpus)
            self.allowed_cpus = None

    # -- one round -----------------------------------------------------------

    def _wire_bytes(self) -> Tuple[int, int]:
        counters = [client.counter for client in self.clients.values()]
        return sum(c.tx_wire for c in counters), sum(c.rx_wire for c in counters)

    def _round(self, batch: int, rec: Optional[SpanRecorder]) -> Dict[str, Any]:
        """Generate ``batch`` windows per peer (untimed), then poll (timed)."""
        if rec is not None:
            rec.begin(ROOT)
        for _ in range(batch):
            self.now += self.window_s
            timed(rec, "cluster.load_advance", self.fleet.advance_to, self.now)
            for daemon in self.daemons.values():
                timed(rec, "rpc.daemon_buffer", daemon.buffer_sample, self.now)
        calls = {
            name: (client, "poll_many", {"now": self.now, "max_windows": MAX_WINDOWS})
            for name, client in self.clients.items()
        }
        tx_before, rx_before = self._wire_bytes()
        started = stamp()
        outcomes = timed(rec, f"rpc.poll_b{batch}", self.poller.poll,
                         calls, None, POLL_TIMEOUT_S)
        ended = stamp()
        tx_after, rx_after = self._wire_bytes()
        if rec is not None:
            if batch == max(self.sizes["batches"]):
                self._codec_spans(rec, outcomes)
            rec.end()
        self.cal.work("tick", started, ended)

        failures = []
        windows = 0
        for name, outcome in outcomes.items():
            problem = check_outcome(outcome, batch, self.last_ts[name])
            if problem is not None:
                failures.append(f"{name}: {problem}")
            if outcome.error is None:
                got = outcome.result["windows"]
                windows += len(got)
                if got:
                    self.last_ts[name] = got[-1]["timestamp"]
        return {
            "batch": batch, "tx": tx_after - tx_before,
            "rx": rx_after - rx_before, "windows": windows,
            "polls": len(calls), "failures": failures,
            "errors": sum(o.error is not None for o in outcomes.values()),
            "rtt_s": [o.rtt_s for o in outcomes.values() if o.rtt_s is not None],
        }

    def _codec_spans(self, rec: SpanRecorder, outcomes: Dict[str, Any]) -> None:
        """Encode and decode each peer's captured result once, under spans.

        The server encodes on its own thread and the client decodes deep
        inside ``poll``; repeating both here, on the frame just received,
        prices the codec's part of ``rpc.poll_b16``.
        """
        for name, outcome in outcomes.items():
            if outcome.error is not None:
                continue
            catalog = self.clients[name].metric_names
            frame = timed(
                rec, "rpc.codec_encode", encode_response_frame,
                {"id": 1, "result": outcome.result}, "poll_many", catalog,
                CODEC_BINARY,
            )
            timed(rec, "rpc.codec_decode", decode_message, frame, "", catalog)

    # -- one repeat ----------------------------------------------------------

    def run_repeat(self, budget_s: float, rec: Optional[SpanRecorder] = None) -> Repeat:
        watch = GcWatch()
        rounds: List[Dict[str, Any]] = []
        self.cal.slice()
        loop_start = time.perf_counter()
        while not rounds or time.perf_counter() - loop_start < budget_s:
            for batch in self.sizes["batches"]:
                rounds.append(self._round(batch, rec))
                self.cal.maybe_slice()
        events = self.cal.take_events()

        # Everything below is computed from the recorded rounds.
        windows = sum(r["windows"] for r in rounds)
        problems = [f for r in rounds for f in r["failures"]]
        per_batch = {}
        for batch in self.sizes["batches"]:
            mine = [r for r in rounds if r["batch"] == batch]
            per_batch[batch] = (
                sum(r["tx"] + r["rx"] for r in mine)
                / max(1, sum(r["windows"] for r in mine))
            )
        rtts = [rtt * 1e6 for r in rounds for rtt in r["rtt_s"]]
        clients = list(self.clients.values())
        # Ratios by one division each: the round count differs from run
        # to run, and only a correctly rounded quotient repeats exactly.
        per_window = max(1, windows)
        tx = sum(r["tx"] for r in rounds)
        rx = sum(r["rx"] for r in rounds)
        counters = {
            "rpc.calls_per_sample": sum(r["polls"] for r in rounds) / per_window,
            "rpc.tx_bytes_per_sample": tx / per_window,
            "rpc.rx_bytes_per_sample": rx / per_window,
            "rpc.static_bytes": float(sum(c.counter.static_wire for c in clients)),
            "rpc.bytes_per_window_b1": per_batch.get(1, 0.0),
            "rpc.bytes_per_window_b16": per_batch.get(16, 0.0),
            "rpc.poll_errors": float(sum(r["errors"] for r in rounds)),
            "rpc.windows_dropped": float(
                sum(d.windows_dropped for d in self.daemons.values())
            ),
            "rpc.rtt_us_p50": percentile(rtts, 50.0) if rtts else 0.0,
            "rpc.rtt_us_p95": percentile(rtts, 95.0) if rtts else 0.0,
            "rpc.connect_us": statistics.median(self.connect_s) * 1e6,
        }
        return watch.stop(Repeat(
            events=events, samples=windows,
            attempted=sum(r["polls"] for r in rounds), failed=len(problems),
            scenario=self.scenario, problems=problems[:5],
            quality={"wire_bytes_per_sample": (tx + rx) / per_window},
            counters=counters,
        ))

    # -- passes --------------------------------------------------------------

    def measure(self, seconds: float, mode: str) -> List[Repeat]:
        count = repeats_for(self.sizes, seconds, mode)
        return [self.run_repeat(seconds / count) for _ in range(count)]

    def trace(self, seconds: float, rec: SpanRecorder):
        reference = self.run_repeat(seconds / 2)
        traced = self.run_repeat(seconds / 2, rec=rec)
        overhead = repeat_cost(traced).cost_cu / repeat_cost(reference).cost_cu - 1.0
        return [reference], traced, {"trace.overhead_pct": 100.0 * overhead}
