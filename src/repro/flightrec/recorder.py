"""The channel-level flight recorder.

Production fingerpointing needs more than an alarm log: when the
``print`` sink indicts a node, the operator wants the *evidence* -- the
metric windows, peer comparisons and DAG path that produced the verdict.
The :class:`FlightRecorder` taps every :class:`~repro.core.Output` of a
running core through :meth:`Output.add_write_hook
<repro.core.channel.Output.add_write_hook>` and keeps the recent past of
every channel in a bounded ring buffer (bounded both by sample count and
by wall-window, sadc-archive style).  Optionally every sample is also
streamed to an on-disk JSONL archive that :mod:`repro.flightrec.replay`
can feed back through any DAG config.

Watching one write costs the same however many channels exist and
however wide the sample is: a ring holds the samples themselves, the
two counts only the write path can keep (records, evictions) are running
ints, what is *buffered* (samples, estimated bytes) is counted when
somebody asks -- ``stats()``, a scrape of the telemetry gauges
(:class:`~repro.telemetry.metrics.ReadGauge`) -- and an archived array
is written as its bytes, not as decimals (:mod:`repro.flightrec.codec`).
A write never enumerates ``rings``; a scrape does.

The recorder never breaks the pipeline it watches: an ``OSError`` from
the archive (disk full, directory gone) or a write after ``close()``
stops the archive, not the module that wrote the sample.  The failure is
logged once on logger ``repro.flightrec`` and shows as ``archive_error``
in :meth:`FlightRecorder.stats`; rings, totals and incident bundles in
memory carry on.

When an :class:`~repro.analysis.metrics.Alarm` reaches a sink, the sink
calls :meth:`FlightRecorder.record_incident`, which freezes an *incident
bundle* (see :mod:`repro.flightrec.bundle`): the alarm, the last N
seconds of every channel on the DAG path upstream of the sink, the peer
comparison vectors, and the analysis configuration in force.

With no recorder attached the core's hot path is untouched -- writing to
an output still costs only the existing ``on_write`` null check.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from collections import deque
from functools import partial
from math import isfinite
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.channel import Origin, Output, Sample
from .codec import array_row_json, encode_value

_log = logging.getLogger("repro.flightrec")

__all__ = ["ChannelRing", "ArchiveWriter", "FlightRecorder"]

#: Default per-channel ring capacity (samples).
DEFAULT_RING_SAMPLES = 512
#: Default ring wall-window (seconds of history kept per channel).
DEFAULT_RING_WINDOW_S = 300.0

ARCHIVE_SAMPLES_FILE = "samples.jsonl"
ARCHIVE_OUTPUTS_FILE = "outputs.json"
ARCHIVE_MANIFEST_FILE = "manifest.json"
ARCHIVE_FORMAT = "asdf-flight-archive/2"
#: Buffer of ``samples.jsonl`` (about 6 s of records at 10 slaves).
ARCHIVE_BUFFER_BYTES = 1 << 16
#: Manifest tags :class:`~repro.flightrec.replay.ReplayArchive` reads:
#: ``/1`` wrote arrays as decimal lists, ``/2`` writes their bytes.
READABLE_ARCHIVE_FORMATS = ("asdf-flight-archive/1", ARCHIVE_FORMAT)
INCIDENT_FORMAT = "asdf-incident-bundle/1"


def _estimate_bytes(value: Any) -> int:
    """Cheap in-memory size estimate for ring-buffer pressure gauges."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + 112
    if isinstance(value, (list, tuple)):
        return 56 + 32 * len(value)
    if isinstance(value, dict):
        return 64 + 72 * len(value)
    try:
        return sys.getsizeof(value)
    except TypeError:  # pragma: no cover - exotic objects
        return 64


def _origin_obj(origin: Optional[Origin]) -> Optional[dict]:
    if origin is None:
        return None
    return {"node": origin.node, "source": origin.source,
            "metric": origin.metric}


class ChannelRing:
    """Recent history of one output channel, bounded two ways.

    At most ``max_samples`` samples are retained, and samples older than
    ``window_s`` before the newest timestamp are evicted on every push --
    whichever bound bites first.
    """

    __slots__ = ("name", "origin", "max_samples", "window_s", "_entries",
                 "evictions", "total_recorded")

    def __init__(self, name: str, origin: Optional[Origin],
                 max_samples: int, window_s: float) -> None:
        self.name = name
        self.origin = origin
        self.max_samples = max(1, int(max_samples))
        self.window_s = max(0.0, float(window_s))
        #: The buffered samples, oldest first.
        self._entries: Deque[Sample] = deque()
        self.evictions = 0
        self.total_recorded = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes(self) -> int:
        """Estimated size of what is buffered, counted now."""
        # A snapshot first: the scheduler's thread may be pushing.
        return sum(_estimate_bytes(s.value) for s in tuple(self._entries))

    def push(self, sample: Sample) -> int:
        """Buffer ``sample``; returns how many samples that evicted."""
        entries = self._entries
        entries.append(sample)
        self.total_recorded += 1
        horizon = sample.timestamp - self.window_s
        evicted = 0  # never the sample just pushed: max >= 1, window >= 0
        while (len(entries) > self.max_samples
               or entries[0].timestamp < horizon):
            entries.popleft()
            evicted += 1
        self.evictions += evicted
        return evicted

    def window(self, start: Optional[float] = None,
               end: Optional[float] = None) -> List[Sample]:
        """Buffered samples with ``start <= timestamp <= end``, oldest first."""
        lo = float("-inf") if start is None else start
        hi = float("inf") if end is None else end
        return [s for s in self._entries if lo <= s.timestamp <= hi]


class ArchiveWriter:
    """Streams every recorded sample to a JSONL archive directory.

    Layout: ``samples.jsonl`` (one record per write: sample timestamp
    ``t``, emission clock time ``at``, output full name ``o``, encoded
    value ``v``), ``outputs.json`` (per-output metadata: owner, name,
    origin -- what replay needs to recreate the channels), and
    ``manifest.json`` (format tag, counters, plus whatever the embedding
    application notes, e.g. the configuration text).

    Format ``asdf-flight-archive/2``: a numeric ndarray anywhere in ``v``
    is its little-endian C-order bytes in base64 with dtype and shape
    (:mod:`repro.flightrec.codec`), bit-exact and an order of magnitude
    cheaper to write than the decimal lists of ``/1``; everything else
    in the three files is as ``/1`` had it.  Incident bundles
    (``incident-NNNN.json``) keep decimal lists: people read those.

    ``samples.jsonl`` is written through a buffer of
    ``ARCHIVE_BUFFER_BYTES``, flushed when it fills, before every
    incident bundle (the evidence for an alarm is on disk when
    ``record_incident`` returns) and at ``close()``; a crash loses at
    most the records since the last of those.

    ``write_sample`` and ``write_incident`` are called from inside
    ``Output.write`` and a sink's ``run()``, so they do not raise
    ``OSError``: the first one (a write, a flush) stops the archive
    (``error`` says why, logged once) and later calls return without
    writing, as they do after ``close()``.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._fh = open(
            os.path.join(directory, ARCHIVE_SAMPLES_FILE), "w",
            encoding="utf-8", buffering=ARCHIVE_BUFFER_BYTES,
        )
        self._outputs: Dict[str, dict] = {}
        #: The last timestamp formatted and its text: every write of a
        #: tick carries the same one.
        self._stamp: Optional[float] = None
        self._stamp_text = ""
        self._closed = False
        self.records_written = 0
        #: Why the archive stopped before ``close()``; ``None`` if healthy.
        self.error: Optional[str] = None

    def note_output(self, output: Output) -> str:
        """Register ``output``'s metadata; returns its record head.

        The head is the ``"o": "<full name>"`` member of every record of
        this output, JSON-escaped here once; hand it to
        :meth:`write_sample`.
        """
        if output.full_name not in self._outputs:
            self._outputs[output.full_name] = {
                "owner": output.owner_id,
                "name": output.name,
                "origin": _origin_obj(output.origin),
            }
        return '"o": ' + json.dumps(output.full_name)

    def _format_stamp(self, value: Any) -> str:
        """``json.dumps(value)`` for a timestamp, without the encoder
        set-up; a plain finite float is remembered for the next record."""
        if type(value) is float and isfinite(value):
            text = float.__repr__(value)
            if value:  # 0.0 == -0.0, and they do not read the same
                self._stamp, self._stamp_text = value, text
            return text
        return json.dumps(value)

    def write_sample(self, head: str, sample: Sample,
                     emitted_at: float) -> None:
        fh = self._fh
        if fh is None:
            return
        timestamp, value = sample
        if type(value) is int:
            body = int.__repr__(value)
        else:
            body = array_row_json(value) if isinstance(value, np.ndarray) else None
            if body is None:
                body = json.dumps(encode_value(value, binary=True))
        if timestamp == self._stamp and type(timestamp) is float:
            t_text = self._stamp_text
        else:
            t_text = self._format_stamp(timestamp)
        if emitted_at == self._stamp and type(emitted_at) is float:
            at_text = self._stamp_text  # the simulated clock: at == t
        else:
            at_text = self._format_stamp(emitted_at)
        try:
            fh.write('{"t": %s, "at": %s, %s, "v": %s}\n'
                     % (t_text, at_text, head, body))
        except OSError as exc:
            self._fail(exc)
            return
        self.records_written += 1

    def write_incident(self, bundle: dict, index: int) -> Optional[str]:
        """Write one bundle file; ``None`` when the archive has stopped."""
        if self._fh is None:
            return None
        path = os.path.join(self.directory, f"incident-{index:04d}.json")
        # ``dumps`` without ``indent`` is the C encoder; ``indent`` or
        # ``json.dump`` walk tens of thousands of floats in Python (3x
        # the time, and indenting doubles the bytes).  People read
        # bundles through ``repro incident``, which re-indents.
        text = json.dumps(bundle, sort_keys=True)
        try:
            self._fh.flush()  # the records the alarm was raised from
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            self._fail(exc)
            return None
        return path

    def _fail(self, exc: OSError) -> None:
        self.error = f"{type(exc).__name__}: {exc}"
        _log.error(
            "flight archive %s stopped, recording continues in memory: %s",
            self.directory, self.error,
        )
        fh, self._fh = self._fh, None
        try:
            fh.close()
        except OSError:
            pass  # the same fault again; already reported

    def close(self, manifest: Optional[dict] = None) -> None:
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            fh, self._fh = self._fh, None
            fh.close()
        with open(
            os.path.join(self.directory, ARCHIVE_OUTPUTS_FILE), "w",
            encoding="utf-8",
        ) as fh:
            json.dump(self._outputs, fh, indent=2, sort_keys=True)
        payload = {"format": ARCHIVE_FORMAT,
                   "records": self.records_written}
        if manifest:
            payload.update(manifest)
        with open(
            os.path.join(self.directory, ARCHIVE_MANIFEST_FILE), "w",
            encoding="utf-8",
        ) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


class FlightRecorder:
    """Per-output ring buffers + optional archive + incident bundles."""

    def __init__(
        self,
        max_samples: int = DEFAULT_RING_SAMPLES,
        window_s: float = DEFAULT_RING_WINDOW_S,
        archive_dir: Optional[str] = None,
        bundle_window_s: float = 90.0,
        max_incidents: int = 64,
        incident_cooldown_s: float = 60.0,
    ) -> None:
        self.max_samples = max_samples
        self.window_s = window_s
        self.bundle_window_s = bundle_window_s
        self.max_incidents = max_incidents
        self.incident_cooldown_s = incident_cooldown_s
        self.rings: Dict[str, ChannelRing] = {}
        self.archive = ArchiveWriter(archive_dir) if archive_dir else None
        self.incidents: List[dict] = []
        self.incidents_suppressed = 0
        self._last_incident: Dict[Tuple[str, str], float] = {}
        self._manifest_notes: dict = {}
        self._core = None
        self._closed = False
        # What only the write path can count, kept as it records.
        self._evictions = 0
        self._recorded = 0

    # -- attachment ----------------------------------------------------------

    def attach(self, core) -> None:
        """Tap every output of ``core`` and register as its recorder.

        Call after the core is constructed.  Instances attached later
        (``core.attach``) are tapped through ``core.context_observers``.
        """
        self._core = core
        core.flight_recorder = self
        core.context_observers.append(self.attach_context)
        if core.telemetry.enabled:
            self._register_gauges(core.telemetry.metrics)
        for ctx in core.dag.contexts.values():
            self.attach_context(ctx)

    def attach_context(self, ctx) -> None:
        """Tap one module context: its outputs plus the sink service."""
        ctx.services.setdefault("flight_recorder", self)
        for output in ctx.outputs.values():
            self.attach_output(output)

    def attach_output(self, output: Output) -> None:
        """Append this recorder's tap to ``output``'s write hooks.

        The tap is ``_record`` with the output's ring and archive record
        head bound in, so a write costs one call and no lookup.
        """
        head = (
            self.archive.note_output(output) if self.archive is not None
            else None
        )
        output.add_write_hook(partial(self._record, self._ring(output), head))

    def _ring(self, output: Output) -> ChannelRing:
        ring = self.rings.get(output.full_name)
        if ring is None:
            ring = ChannelRing(
                output.full_name, output.origin,
                self.max_samples, self.window_s,
            )
            self.rings[output.full_name] = ring
        return ring

    # -- recording -----------------------------------------------------------

    def _record(self, ring: ChannelRing, head: Optional[str],
                output: Output, sample: Sample) -> None:
        self._recorded += 1
        self._evictions += ring.push(sample)
        if head is not None:
            core = self._core
            self.archive.write_sample(
                head, sample,
                core.clock.now() if core is not None else sample.timestamp,
            )

    def buffered_samples(self) -> int:
        """Samples held across all rings, counted now."""
        return sum(map(len, list(self.rings.values())))

    def buffered_bytes(self) -> int:
        """Estimated bytes held across all rings, counted now."""
        return sum(ring.bytes for ring in list(self.rings.values()))

    def _register_gauges(self, metrics) -> None:
        """Publish the totals as gauges read on scrape, never pushed."""
        for name, help_text, read in (
            ("fpt_flightrec_buffered_samples",
             "Samples currently held across all flight-recorder rings.",
             self.buffered_samples),
            ("fpt_flightrec_buffered_bytes",
             "Estimated bytes currently held in flight-recorder rings.",
             self.buffered_bytes),
            ("fpt_flightrec_evictions_total",
             "Samples evicted from flight-recorder rings (capacity or "
             "wall-window pressure).",
             lambda: self._evictions),
            ("fpt_flightrec_records_total",
             "Samples ever recorded by the flight recorder.",
             lambda: self._recorded),
            ("fpt_flightrec_incidents_total",
             "Incident bundles frozen by the flight recorder.",
             lambda: len(self.incidents)),
        ):
            metrics.read_gauge(name, help_text, read)

    # -- incidents -----------------------------------------------------------

    def record_incident(self, alarm, sink: str,
                        inputs: Tuple[str, ...] = ()) -> Optional[dict]:
        """Freeze an incident bundle for ``alarm`` as seen by ``sink``.

        Returns the bundle, or ``None`` when suppressed (per-culprit
        cooldown or the ``max_incidents`` cap).  ``inputs`` is the
        provenance chain of outputs that delivered the alarm, newest
        last (the sink's own delivering connection).
        """
        if self._core is None or len(self.incidents) >= self.max_incidents:
            self.incidents_suppressed += 1
            return None
        key = (alarm.node, alarm.source)
        last = self._last_incident.get(key)
        if last is not None and alarm.time - last < self.incident_cooldown_s:
            self.incidents_suppressed += 1
            return None
        self._last_incident[key] = alarm.time
        from .bundle import build_incident_bundle

        bundle = build_incident_bundle(
            self, self._core.dag, alarm, sink=sink, inputs=inputs,
            window_s=self.bundle_window_s,
        )
        self.incidents.append(bundle)
        if self.archive is not None:
            self.archive.write_incident(bundle, len(self.incidents))
        return bundle

    # -- views / lifecycle ---------------------------------------------------

    def window(self, full_name: str, start: Optional[float] = None,
               end: Optional[float] = None) -> List[Sample]:
        ring = self.rings.get(full_name)
        return ring.window(start, end) if ring is not None else []

    def stats(self) -> dict:
        """Recorder-level accounting snapshot."""
        return {
            "channels": len(self.rings),
            "buffered_samples": self.buffered_samples(),
            "buffered_bytes": self.buffered_bytes(),
            "evictions": self._evictions,
            "recorded": self._recorded,
            "incidents": len(self.incidents),
            "incidents_suppressed": self.incidents_suppressed,
            "archived_records": (
                self.archive.records_written if self.archive else 0
            ),
            # None both without an archive and with a healthy one; a
            # message means records stopped reaching the disk.
            "archive_error": self.archive.error if self.archive else None,
        }

    def note_manifest(self, **entries) -> None:
        """Add entries to the archive manifest written at close."""
        self._manifest_notes.update(entries)

    def close(self) -> None:
        """Flush and close the on-disk archive; idempotent.

        The taps stay on the outputs: rings and totals keep recording,
        only the archive stops taking records.
        """
        if self._closed:
            return
        self._closed = True
        if self.archive is not None:
            manifest = dict(self._manifest_notes)
            manifest["stats"] = self.stats()
            self.archive.close(manifest)
