"""Archive replay: feed a recorded run back through any DAG config.

The config's source instances (no inputs: ``sadc``, ``hadoop_log``)
become :class:`ReplaySourceModule` instances that recreate the recorded
outputs and re-emit their samples at the recorded emission times, at
simulated speed.  The downstream DAG, the write order and the clock grid
are the recording's, so the analyses raise byte-identical alarms (a
wall-clock recording replays too, its jitter on the replay tick grid).
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..analysis.metrics import Alarm
from ..core import (
    DEFAULT_QUEUE_CAPACITY,
    SCHEDULE_PARAMS,
    FptCore,
    InstanceSpec,
    Module,
    ModuleRegistry,
    Origin,
    ParamSpec,
    RunReason,
    SimClock,
    TriggerSpec,
    parse_config,
)
from ..core.errors import ConfigError
from .codec import decode_value
from .recorder import (
    ARCHIVE_MANIFEST_FILE,
    ARCHIVE_OUTPUTS_FILE,
    ARCHIVE_SAMPLES_FILE,
    READABLE_ARCHIVE_FORMATS,
)

__all__ = ["ReplayArchive", "ReplayRecord", "ReplaySourceModule", "ReplayResult",
           "make_replay_registry", "replay_core", "run_replay"]

_UNREAD = object()


class ReplayRecord:
    """One archived write: emission time ``at``, the sample's
    ``timestamp``, ``output`` ("instance.output") and ``value``, built on
    access; ``value`` is read from the archive when first asked for."""

    __slots__ = ("at", "timestamp", "output", "_stream", "_index", "_value")

    def __init__(self, stream: "_Stream", index: int) -> None:
        self.at, self.timestamp = stream.at[index], stream.t[index]
        self.output = stream.names[stream.slot[index]]
        self._stream, self._index, self._value = stream, index, _UNREAD

    @property
    def value(self) -> object:
        if self._value is _UNREAD:
            self._value = self._stream.value(self._index)
        return self._value


def _read_value(fh, offset: int) -> object:
    fh.seek(offset)
    return decode_value(json.loads(fh.readline())["v"])


class _Stream:
    """One instance's records in file order, as columns: ``slot`` (into
    ``names``), ``at``, ``t`` and the byte ``offset`` of each line of
    ``samples.jsonl``.  A source whose every value is a float64 vector of
    one width keeps them in ``rows``, one read-only matrix; other values
    stay in the file until asked for.
    """

    def __init__(self, path: str, number: int) -> None:
        self.path, self.number, self.names = path, number, []
        self.slot, self.offset = array("i"), array("q")
        self.at, self.t = array("d"), array("d")
        self.rows: Optional[np.ndarray] = None
        #: The row bytes while loading; ``None`` once a value is no
        #: vector of the first one's width.
        self.pending: Optional[bytearray] = bytearray()
        self.width = 0
        #: Record index -> its value, for the records that are alarms.
        self.alarms: Dict[int, Alarm] = {}
        self._replay: Optional[Tuple[array, list]] = None

    def add(self, value: object) -> None:
        """Keep the rows while every value is a float64 vector of the
        first one's width."""
        if (isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1
                and value.size and value.size == (self.width or value.size)):
            self.pending += value.tobytes()
            self.width = value.size
        else:
            self.pending = None

    def finish(self) -> None:
        if self.t.tobytes() == self.at.tobytes():
            self.t = self.at  # a simulated clock's archive: one column
        if self.pending:
            self.rows = np.frombuffer(self.pending, dtype="<f8").reshape(
                len(self.at), self.width).copy()
            self.rows.flags.writeable = False
        self.pending = None

    def replay(self) -> Tuple[array, list]:
        """``(due, values)``, built once for every core replaying this
        stream: ``at`` as a running maximum (a bisect lands where a scan
        for the first later record stops) and the rows as views, or the
        decoded objects."""
        if self._replay is None:
            if self.rows is not None:
                values = list(self.rows)
            else:
                with open(self.path, "rb") as fh:
                    values = [_read_value(fh, offset) for offset in self.offset]
            self._replay = (array("d", accumulate(self.at, max)), values)
        return self._replay

    def value(self, k: int) -> object:
        if self.rows is not None:
            return self.rows[k].copy()  # an array of its own
        if self._replay is not None:
            return self._replay[1][k]
        with open(self.path, "rb") as fh:
            return _read_value(fh, self.offset[k])


class _Records(SequenceABC):
    """``ReplayArchive.records``: record ``i`` of the file is record
    ``index[i]`` of stream ``streams[number[i]]``, built when read."""

    def __init__(self, streams: List[_Stream], number: array, index: array) -> None:
        self._streams, self._number, self._index = streams, number, index

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, i: int) -> ReplayRecord:
        return ReplayRecord(self._streams[self._number[i]], self._index[i])

    def __iter__(self):
        streams = self._streams
        return (ReplayRecord(streams[n], k) for n, k in zip(self._number, self._index))


class ReplayArchive:
    """A loaded flight-recorder archive directory: one :class:`_Stream`
    of columns per instance.  Values other than a source's vector rows
    are read back from ``samples.jsonl`` when asked for, so the directory
    must outlive the archive.  ``records``: all of it in file order."""

    def __init__(self, directory: str, outputs: Dict[str, dict], manifest: dict,
                 streams: Dict[str, _Stream], number: array, index: array) -> None:
        self.directory = directory
        self.outputs = outputs          # full_name -> {owner, name, origin}
        self.manifest = manifest
        self._streams = streams         # owner -> its records
        self.records: Sequence[ReplayRecord] = _Records(list(streams.values()), number, index)

    @classmethod
    def load(cls, directory: str) -> "ReplayArchive":
        """Read an archive directory of any format this code has written.

        ``asdf-flight-archive/2`` (arrays as bytes), ``/1`` (arrays as
        decimal lists) and archives without a manifest or a tag load
        into the same columns.  Any other tag is a newer or foreign
        layout and raises ``ValueError`` instead of being guessed.
        """
        samples_path = os.path.join(directory, ARCHIVE_SAMPLES_FILE)
        if not os.path.exists(samples_path):
            raise FileNotFoundError(
                f"no flight archive at {directory!r} (missing {ARCHIVE_SAMPLES_FILE})")
        manifest, outputs = (_read_json(os.path.join(directory, name))
                             for name in (ARCHIVE_MANIFEST_FILE, ARCHIVE_OUTPUTS_FILE))
        tag = manifest.get("format")
        if tag is not None and tag not in READABLE_ARCHIVE_FORMATS:
            raise ValueError(f"flight archive at {directory!r} has format {tag!r}; this "
                             f"reader knows {', '.join(READABLE_ARCHIVE_FORMATS)}")
        streams: Dict[str, _Stream] = {}
        places: Dict[str, Tuple[_Stream, int]] = {}

        def place(name: str) -> Tuple[_Stream, int]:
            meta = outputs.get(name)
            # An output ``outputs.json`` lacks belongs to the instance
            # its name starts with.
            owner = meta["owner"] if meta else name.partition(".")[0]
            if owner not in streams:
                streams[owner] = _Stream(samples_path, len(streams))
            stream = streams[owner]
            found = places[name] = (stream, len(stream.names))
            stream.names.append(sys.intern(name))
            return found

        for name in outputs:
            place(name)
        number, index = array("i"), array("i")
        offset = 0
        with open(samples_path, "rb") as fh:
            for line in fh:
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                obj = json.loads(line)
                stream, slot = places.get(obj["o"]) or place(obj["o"])
                number.append(stream.number)
                index.append(len(stream.at))
                stream.slot.append(slot)
                stream.offset.append(start)
                stream.at.append(float(obj["at"]))
                stream.t.append(float(obj["t"]))
                value = obj["v"]
                if type(value) is dict and value.get("__kind__") in ("ndarray", "alarm"):
                    value = decode_value(value)
                if isinstance(value, Alarm):
                    stream.alarms[len(stream.at) - 1] = value
                if stream.pending is not None:
                    stream.add(value)
        for stream in streams.values():
            stream.finish()
        return cls(directory, outputs, manifest, streams, number, index)

    def instances(self) -> Set[str]:
        """Instance ids that own at least one archived output."""
        return set(self._streams)

    def outputs_of(self, instance_id: str) -> Dict[str, dict]:
        """Output name -> metadata for one instance's archived outputs."""
        return {m["name"]: m for m in self.outputs.values() if m["owner"] == instance_id}

    def records_for_instance(self, instance_id: str) -> List[ReplayRecord]:
        """Every record of the instance's outputs, in file order."""
        stream = self._streams.get(instance_id)
        return [ReplayRecord(stream, k) for k in range(len(stream.at))] if stream else []

    def _alarms_on(self, full_names: Iterable[str]) -> List[Alarm]:
        """The alarms these outputs carried, in file order."""
        wanted = set(full_names)
        found = [(stream.offset[k], alarm) for stream in self._streams.values()
                 for k, alarm in stream.alarms.items() if stream.names[stream.slot[k]] in wanted]
        return [alarm for _, alarm in sorted(found, key=itemgetter(0))]

    def end_time(self) -> float:
        return max(chain.from_iterable(s.at for s in self._streams.values()), default=0.0)


def _read_json(path: str) -> dict:
    """The JSON object in ``path``; empty when there is no such file."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class ReplaySourceModule(Module):
    """Re-emits one recorded instance's outputs from a flight archive.

    Configuration::

        [replay_source]
        id = sadc                  ; assumes the original instance id
        instance = sadc            ; optional override
        tick = 1.0                 ; optional; inferred from the archive

    The archive is resolved through the ``replay_archive`` service.
    """

    type_name = "replay_source"
    params = (
        ParamSpec("instance", "str"),  # absent: the instance's own id
        ParamSpec("tick", "float", default="0.0"),  # <= 0: inferred
        SCHEDULE_PARAMS[1],  # phase
    )
    ports = ()
    trigger = TriggerSpec.periodic()

    def init(self) -> None:
        ctx = self.ctx
        archive: ReplayArchive = ctx.service("replay_archive")
        self.source_id = ctx.param_str("instance") or ctx.instance_id
        metas = archive.outputs_of(self.source_id)
        if not metas:
            raise ConfigError(
                f"replay_source '{ctx.instance_id}': archive has no outputs "
                f"for instance '{self.source_id}'"
            )
        writes = {}
        for name in sorted(metas):
            origin = metas[name].get("origin")
            output = ctx.create_output(name, Origin(**origin) if origin else None)
            writes[f"{self.source_id}.{name}"] = output.write
        # The columns, shared with every other core replaying the archive.
        self._stream = stream = archive._streams[self.source_id]
        #: A record's slot -> that output's bound ``write``.
        self._writes = [writes[name] for name in stream.names]
        self._due, self._values = stream.replay()
        self._pos = 0
        self.samples_replayed = 0
        tick = ctx.param_float("tick")
        if tick <= 0.0:  # the smallest gap between distinct emission times
            times = sorted(set(stream.at))
            gaps = (b - a for a, b in zip(times, times[1:]) if b - a > 1e-9)
            tick = min(gaps, default=1.0)
        ctx.schedule_every(tick, ctx.param_float("phase"))

    def run(self, reason: RunReason) -> None:
        start = self._pos
        end = bisect_right(self._due, self.ctx.clock.now() + 1e-9, start)
        stream, writes = self._stream, self._writes
        for slot, value, timestamp in zip(
            stream.slot[start:end], self._values[start:end], stream.t[start:end]
        ):
            writes[slot](value, timestamp)
        self._pos = end
        self.samples_replayed += end - start


def make_replay_registry(base: Optional[ModuleRegistry] = None) -> ModuleRegistry:
    """The standard registry plus ``replay_source``."""
    if base is None:
        from ..modules import standard_registry

        base = standard_registry()
    base.register(ReplaySourceModule)
    return base


def _substitute_sources(
    specs: Sequence[InstanceSpec],
    archive: ReplayArchive,
    replace: Optional[Sequence[str]] = None,
) -> List[InstanceSpec]:
    """Swap source instances for replay sources feeding from ``archive``."""
    recorded = archive.instances()
    replaced = set(replace) if replace is not None else {
        spec.instance_id for spec in specs
        if not spec.inputs and spec.instance_id in recorded
    }
    missing = sorted(replaced - recorded)
    if missing:
        raise ConfigError(f"cannot replay: archive has no data for instances {missing}")
    if not replaced:
        raise ConfigError(
            "cannot replay: no config instance matches the archive "
            f"(archived instances: {sorted(recorded)[:8]}...)"
        )
    return [
        InstanceSpec(module_type="replay_source", instance_id=spec.instance_id,
                     params={}, inputs=[])
        if spec.instance_id in replaced else spec
        for spec in specs
    ]


def replay_core(
    archive: ReplayArchive,
    config: Union[str, Sequence[InstanceSpec]],
    registry: Optional[ModuleRegistry] = None,
    services: Optional[dict] = None,
    replace: Optional[Sequence[str]] = None,
    telemetry=None,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
) -> FptCore:
    """Build a runnable core whose sources replay from ``archive``."""
    specs = parse_config(config) if isinstance(config, str) else list(config)
    specs = _substitute_sources(specs, archive, replace)
    if registry is None:
        registry = make_replay_registry()
    elif "replay_source" not in registry:
        registry.register(ReplaySourceModule)
    return FptCore(
        specs, registry, SimClock(), queue_capacity,
        services={"replay_archive": archive, **(services or {})},
        telemetry=telemetry,
    )


@dataclass
class ReplayResult:
    """Outcome of one archive replay, scored against the recording."""

    core: FptCore = field(repr=False)
    end_time: float = 0.0
    #: sink instance id -> alarms the replayed sink received.
    alarms: Dict[str, List[Alarm]] = field(default_factory=dict)
    #: sink instance id -> alarms the *recorded* run delivered to the
    #: same sink (reconstructed from the archived upstream channels).
    expected: Dict[str, List[Alarm]] = field(default_factory=dict)

    @property
    def matches(self) -> Dict[str, bool]:
        return {
            sink: self.alarms.get(sink, []) == self.expected.get(sink, [])
            for sink in self.expected
        }

    @property
    def all_match(self) -> bool:
        return all(self.matches.values()) if self.expected else True


def run_replay(
    archive: ReplayArchive,
    config: Union[str, Sequence[InstanceSpec]],
    duration: Optional[float] = None,
    services: Optional[dict] = None,
    replace: Optional[Sequence[str]] = None,
    telemetry=None,
) -> ReplayResult:
    """Replay ``archive`` through ``config`` and score alarm fidelity.

    Runs the replayed core to the archive's end (or ``duration``), then
    compares each ``print`` sink's alarms against the alarms the
    recorded run delivered on the same upstream channels.
    """
    from ..modules.alarms import PrintModule

    core = replay_core(
        archive, config, services=services, replace=replace,
        telemetry=telemetry,
    )
    end = duration if duration is not None else archive.end_time() + 1.0
    core.run_until(end)

    result = ReplayResult(core=core, end_time=end)
    for instance_id in core.instances:
        module = core.instance(instance_id)
        if not isinstance(module, PrintModule):
            continue
        result.alarms[instance_id] = module.alarms
        result.expected[instance_id] = archive._alarms_on(
            f"{edge.src_instance}.{edge.output_name}"
            for edge in core.edges if edge.dst_instance == instance_id
        )
    return result
