"""Sample-to-alarm latency tracing over the ``Alarm.via`` provenance chain.

ASDF's headline property is that diagnosis happens *online*: an alarm is
only useful if it fires soon after the fault manifests in the data.  The
accuracy evaluation (Table 2) says nothing about how long a sample spent
travelling collection -> window -> analysis -> alarm.  This module
measures exactly that, without touching the hot path when disabled.

Two clocks are threaded through every channel write:

* the **sim stamp** -- the sample's own timestamp under the core's
  (usually simulated) clock, and
* the **wall stamp** -- ``time.perf_counter()`` at the instant the write
  happened, i.e. real elapsed processing time.

The tracer taps every :class:`~repro.core.channel.Output` through
:meth:`~repro.core.channel.Output.add_write_hook`, as the flight
recorder does, so an untraced core pays nothing.  On each write it
records the pair of stamps for that output and propagates an **ingest
watermark**: outputs of source
instances (no wired inputs -- sadc, hadoop_log, replay sources) stamp
their own write as the ingest instant; outputs of downstream instances
inherit the newest ingest watermark among their upstream outputs.  The
watermark therefore answers "when did the newest raw sample contributing
to this value enter the pipeline?" -- the paper's sample-side anchor for
end-to-end latency.

When an alarm reaches a sink, :meth:`LatencyTracer.record_alarm` walks
the delivered provenance chain (``Alarm.via`` plus the sink's delivering
connection, oldest first) and produces an :class:`AlarmLatencyRecord`:
per-stage hop latencies between consecutive outputs on the chain, plus
the total ingest->delivery latency in both clocks.  Alarms with an empty
chain, or whose chain head has no ingest watermark (e.g. replayed
archives where the raw collection stage was not re-run), yield a record
whose totals are explicitly ``None`` -- well-defined absence, never a
fabricated number.

Cluster mode adds **remote hops**: when a sample enters the pipeline
over a real socket (a collection daemon in another OS process), the
ingest side calls :meth:`LatencyTracer.note_remote_write` with the wall
seconds the sample spent in flight (emit instant at the remote daemon to
arrival at the central analysis daemon, both on ``time.time()``).  The
hop is stored per stage name and surfaced on each alarm record as
``remote_hop_wall_s`` -- the share of end-to-end latency attributable to
real network transport rather than in-process analysis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.metrics import Alarm
from ..core.channel import Output, Sample

__all__ = ["StageLatency", "AlarmLatencyRecord", "LatencyTracer"]


@dataclass(frozen=True)
class StageLatency:
    """One hop of an alarm's provenance chain.

    ``sim_s``/``wall_s`` are the latencies from the previous stage's
    write (or, for the first stage, from its own ingest watermark, which
    makes them 0 for source outputs) to this stage's write.  ``None``
    when either endpoint was never observed.
    """

    output: str
    sim_s: Optional[float]
    wall_s: Optional[float]

    def to_json_obj(self) -> dict:
        return {"output": self.output, "sim_s": self.sim_s,
                "wall_s": self.wall_s}


@dataclass(frozen=True)
class AlarmLatencyRecord:
    """End-to-end latency of one alarm, derived from its via chain."""

    alarm_time: float
    node: str
    source: str
    #: The walked chain: ``alarm.via`` plus the sink's delivering output.
    delivered: Tuple[str, ...]
    #: Ingest watermark of the chain's head output (None if unknown).
    ingest_sim: Optional[float]
    stages: Tuple[StageLatency, ...]
    #: Final hop: last chained write -> sink delivery.
    deliver_sim_s: Optional[float]
    deliver_wall_s: Optional[float]
    #: Ingest watermark -> sink delivery.  ``None`` when the chain is
    #: empty or its head has no ingest watermark (explicit absence).
    total_sim_s: Optional[float]
    total_wall_s: Optional[float]
    #: Wall seconds spent on real socket hops by the stages on this
    #: chain (``None`` when no stage recorded a remote hop -- e.g. all
    #: in-process simulation runs).
    remote_hop_wall_s: Optional[float] = None

    @property
    def measured(self) -> bool:
        """True when an end-to-end latency could actually be derived."""
        return self.total_sim_s is not None

    def to_json_obj(self) -> dict:
        return {
            "alarm_time": self.alarm_time,
            "node": self.node,
            "source": self.source,
            "delivered": list(self.delivered),
            "ingest_sim": self.ingest_sim,
            "stages": [stage.to_json_obj() for stage in self.stages],
            "deliver_sim_s": self.deliver_sim_s,
            "deliver_wall_s": self.deliver_wall_s,
            "total_sim_s": self.total_sim_s,
            "total_wall_s": self.total_wall_s,
            "remote_hop_wall_s": self.remote_hop_wall_s,
        }


class LatencyTracer:
    """Per-output write stamps plus ingest-watermark propagation."""

    def __init__(self) -> None:
        #: output full name -> (sim stamp, wall stamp) of its last write.
        self._writes: Dict[str, Tuple[float, float]] = {}
        #: output full name -> ingest watermark (sim, wall) of the newest
        #: source sample that had entered the pipeline when it was written.
        self._ingest: Dict[str, Tuple[float, float]] = {}
        #: instance id -> upstream output full names (its wired inputs).
        self._upstreams: Dict[str, Tuple[str, ...]] = {}
        #: stage name -> wall seconds its last sample spent on a real
        #: socket hop (remote daemon emit -> local arrival).
        self._remote_hops: Dict[str, float] = {}
        self.writes_observed = 0

    # -- attachment ----------------------------------------------------------

    def attach_context(self, ctx) -> None:
        upstreams = tuple(
            connection.output.full_name
            for group in ctx.inputs.values()
            for connection in group
        )
        self._upstreams[ctx.instance_id] = upstreams
        for output in ctx.outputs.values():
            self.attach_output(output)

    def attach_output(self, output: Output) -> None:
        output.add_write_hook(self.on_write)

    # -- write path ----------------------------------------------------------

    def on_write(self, output: Output, sample: Sample) -> None:
        """Stamp one write and propagate the ingest watermark."""
        wall = time.perf_counter()
        name = output.full_name
        self._writes[name] = (sample.timestamp, wall)
        self.writes_observed += 1
        upstreams = self._upstreams.get(output.owner_id)
        if not upstreams:
            # Source instance (no wired inputs): this write *is* ingest.
            self._ingest[name] = (sample.timestamp, wall)
            return
        best: Optional[Tuple[float, float]] = None
        ingest = self._ingest
        for upstream in upstreams:
            stamp = ingest.get(upstream)
            if stamp is not None and (best is None or stamp[0] > best[0]):
                best = stamp
        if best is not None:
            self._ingest[name] = best

    # -- remote (cluster) stamping -------------------------------------------

    def note_write(self, name: str, sim: float, wall: float) -> None:
        """Stamp one named stage's write without an Output object.

        The cluster's central daemon runs a lightweight analysis loop
        rather than a full core, so it stamps stages by name.
        """
        self._writes[name] = (sim, wall)
        self.writes_observed += 1

    def note_remote_write(
        self,
        name: str,
        sim: float,
        wall: float,
        hop_wall_s: Optional[float] = None,
    ) -> None:
        """Stamp the arrival of a sample that crossed a real socket.

        The arrival *is* ingest (the sample just entered this process's
        pipeline); ``hop_wall_s`` is the measured emit->arrival wall
        time at the remote daemon, folded into every alarm whose chain
        passes through this stage.
        """
        self._writes[name] = (sim, wall)
        self._ingest[name] = (sim, wall)
        self.writes_observed += 1
        if hop_wall_s is not None:
            self._remote_hops[name] = max(0.0, hop_wall_s)

    # -- alarm-side walk -----------------------------------------------------

    def ingest_watermark(self, full_name: str) -> Optional[Tuple[float, float]]:
        return self._ingest.get(full_name)

    def last_write(self, full_name: str) -> Optional[Tuple[float, float]]:
        return self._writes.get(full_name)

    def record_alarm(
        self,
        alarm: Alarm,
        delivered: Tuple[str, ...],
        sim_now: float,
        wall_now: Optional[float] = None,
    ) -> AlarmLatencyRecord:
        """Walk ``delivered`` (oldest first) into a latency record.

        ``sim_now`` is the sink's delivery instant on the sim clock;
        ``wall_now`` defaults to the current ``perf_counter``.
        """
        if wall_now is None:
            wall_now = time.perf_counter()
        if not delivered:
            return AlarmLatencyRecord(
                alarm_time=alarm.time, node=alarm.node, source=alarm.source,
                delivered=(), ingest_sim=None, stages=(),
                deliver_sim_s=None, deliver_wall_s=None,
                total_sim_s=None, total_wall_s=None,
            )
        ingest = self._ingest.get(delivered[0])
        previous = ingest
        stages = []
        for name in delivered:
            stamp = self._writes.get(name)
            if stamp is not None and previous is not None:
                stages.append(StageLatency(
                    output=name,
                    sim_s=max(0.0, stamp[0] - previous[0]),
                    wall_s=max(0.0, stamp[1] - previous[1]),
                ))
            else:
                stages.append(StageLatency(output=name, sim_s=None, wall_s=None))
            if stamp is not None:
                previous = stamp
        last = self._writes.get(delivered[-1])
        deliver_sim = max(0.0, sim_now - last[0]) if last is not None else None
        deliver_wall = max(0.0, wall_now - last[1]) if last is not None else None
        total_sim = max(0.0, sim_now - ingest[0]) if ingest is not None else None
        total_wall = max(0.0, wall_now - ingest[1]) if ingest is not None else None
        hops = [
            self._remote_hops[name]
            for name in delivered
            if name in self._remote_hops
        ]
        return AlarmLatencyRecord(
            alarm_time=alarm.time, node=alarm.node, source=alarm.source,
            delivered=tuple(delivered), ingest_sim=(
                ingest[0] if ingest is not None else None
            ),
            stages=tuple(stages),
            deliver_sim_s=deliver_sim, deliver_wall_s=deliver_wall,
            total_sim_s=total_sim, total_wall_s=total_wall,
            remote_hop_wall_s=sum(hops) if hops else None,
        )
