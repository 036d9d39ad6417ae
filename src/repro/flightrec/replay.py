"""Archive replay: feed a recorded run back through any DAG config.

BiDAl-style replayable traces for the fpt-core: a run recorded by the
:class:`~repro.flightrec.recorder.FlightRecorder` (with an archive
directory) can be re-run through the *same or a different* configuration
at simulated speed -- no cluster simulator, no model training, just the
DAG math.  That turns threshold re-tuning (``experiments/sweep.py``) and
regression tests into archive replays instead of fresh simulations.

How it works: the config's source instances (those with no inputs --
``sadc``, ``hadoop_log``) are substituted with :class:`ReplaySourceModule`
instances.  Each replay source recreates its original instance's outputs
(same names, same :class:`~repro.core.Origin`) from the archive's output
metadata and re-emits the recorded samples at their recorded emission
times on the simulated clock.  Because the downstream DAG, the write
order and the clock grid are identical to the recording, the analysis
modules raise byte-identical alarms.

Determinism contract: archives must come from a simulated-clock run (the
default everywhere in this repo); wall-clock recordings replay too, but
emission jitter then lands on the replay tick grid.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

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

__all__ = [
    "ReplayArchive",
    "ReplayRecord",
    "ReplaySourceModule",
    "ReplayResult",
    "archived_stats_rounds",
    "make_replay_registry",
    "replay_core",
    "run_replay",
]


@dataclass(frozen=True)
class ReplayRecord:
    """One archived write: when it was emitted, on which output, what."""

    at: float          # clock time of the original emission
    timestamp: float   # the sample's own timestamp
    output: str        # output full name ("instance.output")
    value: object      # decoded payload


class _ArchiveIndex:
    """One pass over an archive's records: which output wrote where."""

    def __init__(self, records: List[ReplayRecord], outputs: Dict[str, dict]) -> None:
        self.records = records
        self.size = len(records)
        #: output full name -> positions of its records (packed ints).
        self.positions: Dict[str, array] = defaultdict(lambda: array("q"))
        for position, record in enumerate(records):
            self.positions[record.output].append(position)
        #: owner -> its outputs' full names; an output missing from
        #: ``outputs.json`` belongs to the instance its name starts with.
        self.names: Dict[str, List[str]] = {}
        for name in dict.fromkeys(chain(outputs, self.positions)):
            meta = outputs.get(name)
            owner = meta["owner"] if meta else name.partition(".")[0]
            self.names.setdefault(owner, []).append(name)
        #: owner -> its records in file order; shared by all who ask.
        self.by_owner = {
            owner: self.select(names) for owner, names in self.names.items()
        }

    def select(self, full_names: Iterable[str]) -> List[ReplayRecord]:
        """The records of these outputs, merged in file order."""
        found = [self.positions[n] for n in full_names if n in self.positions]
        merged = found[0] if len(found) == 1 else sorted(chain.from_iterable(found))
        return [self.records[position] for position in merged]


class ReplayArchive:
    """A loaded flight-recorder archive directory.

    ``records`` is the archive in file order; per-instance and
    per-output questions are answered from an index built lazily in one
    pass (rebuilt if ``records`` was appended to or replaced).
    ``records_for_instance`` hands every caller the same list: read it.
    """

    def __init__(self, directory: str, records: List[ReplayRecord],
                 outputs: Dict[str, dict], manifest: dict) -> None:
        self.directory = directory
        self.records = records          # file order == emission order
        self.outputs = outputs          # full_name -> {owner, name, origin}
        self.manifest = manifest
        self._indexed: Optional[_ArchiveIndex] = None

    @classmethod
    def load(cls, directory: str) -> "ReplayArchive":
        """Read an archive directory of any format this code has written.

        ``asdf-flight-archive/2`` (arrays as bytes), ``/1`` (arrays as
        decimal lists) and archives without a manifest or a tag load
        alike -- :func:`~repro.flightrec.codec.decode_value` tells the
        two array forms apart per value.  Any other tag is a newer or
        foreign layout and raises ``ValueError`` instead of being guessed.
        """
        samples_path = os.path.join(directory, ARCHIVE_SAMPLES_FILE)
        if not os.path.exists(samples_path):
            raise FileNotFoundError(
                f"no flight archive at {directory!r} (missing "
                f"{ARCHIVE_SAMPLES_FILE})"
            )
        manifest: dict = {}
        manifest_path = os.path.join(directory, ARCHIVE_MANIFEST_FILE)
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        tag = manifest.get("format")
        if tag is not None and tag not in READABLE_ARCHIVE_FORMATS:
            raise ValueError(
                f"flight archive at {directory!r} has format {tag!r}; this "
                f"reader knows {', '.join(READABLE_ARCHIVE_FORMATS)}"
            )
        records: List[ReplayRecord] = []
        with open(samples_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                records.append(
                    ReplayRecord(
                        at=float(obj["at"]),
                        timestamp=float(obj["t"]),
                        # One str per output, not per record.
                        output=sys.intern(obj["o"]),
                        value=decode_value(obj["v"]),
                    )
                )
        outputs: Dict[str, dict] = {}
        outputs_path = os.path.join(directory, ARCHIVE_OUTPUTS_FILE)
        if os.path.exists(outputs_path):
            with open(outputs_path, encoding="utf-8") as fh:
                outputs = json.load(fh)
        return cls(directory, records, outputs, manifest)

    def _index(self) -> _ArchiveIndex:
        index = self._indexed
        records = self.records
        if (index is None or index.records is not records
                or index.size != len(records)):
            index = self._indexed = _ArchiveIndex(records, self.outputs)
        return index

    def instances(self) -> Set[str]:
        """Instance ids that own at least one archived output."""
        return set(self._index().names)

    def outputs_of(self, instance_id: str) -> Dict[str, dict]:
        """Output name -> metadata for one instance's archived outputs."""
        names = self._index().names.get(instance_id, ())
        metas = (self.outputs[name] for name in names if name in self.outputs)
        return {meta["name"]: meta for meta in metas}

    def records_for_instance(self, instance_id: str) -> List[ReplayRecord]:
        """Every record of the instance's outputs, in file order."""
        return self._index().by_owner.get(instance_id, [])

    def records_for_outputs(self, full_names: Iterable[str]) -> List[ReplayRecord]:
        """The records of these outputs, merged in file order."""
        return self._index().select(set(full_names))

    def samples_for_output(self, full_name: str) -> List[ReplayRecord]:
        return self._index().select((full_name,))

    def end_time(self) -> float:
        return max((r.at for r in self.records), default=0.0)


def _infer_tick(records: Sequence[ReplayRecord]) -> float:
    """Smallest positive gap between distinct emission times (default 1.0)."""
    times = sorted({r.at for r in records})
    gaps = [b - a for a, b in zip(times, times[1:]) if b - a > 1e-9]
    return min(gaps) if gaps else 1.0


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
        #: A record's output full name -> that output's bound ``write``.
        self._writes = {}
        for name in sorted(metas):
            origin = metas[name].get("origin")
            output = ctx.create_output(
                name, Origin(**origin) if isinstance(origin, dict) else None
            )
            self._writes[f"{self.source_id}.{name}"] = output.write
        # Shared with every other core replaying this archive.
        self._records = archive.records_for_instance(self.source_id)
        self._pos = 0
        self.samples_replayed = 0
        tick = ctx.param_float("tick")
        if tick <= 0.0:
            tick = _infer_tick(self._records)
        ctx.schedule_every(tick, ctx.param_float("phase"))

    def run(self, reason: RunReason) -> None:
        now = self.ctx.clock.now() + 1e-9
        records = self._records
        writes = self._writes
        start = pos = self._pos
        end = len(records)
        while pos < end:
            record = records[pos]
            if record.at > now:
                break
            writes[record.output](record.value, record.timestamp)
            pos += 1
        self._pos = pos
        self.samples_replayed += pos - start


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
    if replace is None:
        replaced = {
            spec.instance_id
            for spec in specs
            if not spec.inputs and spec.instance_id in recorded
        }
    else:
        replaced = set(replace)
        missing = sorted(replaced - recorded)
        if missing:
            raise ConfigError(
                f"cannot replay: archive has no data for instances {missing}"
            )
    if not replaced:
        raise ConfigError(
            "cannot replay: no config instance matches the archive "
            f"(archived instances: {sorted(recorded)[:8]}...)"
        )
    out: List[InstanceSpec] = []
    for spec in specs:
        if spec.instance_id in replaced:
            out.append(
                InstanceSpec(
                    module_type="replay_source",
                    instance_id=spec.instance_id,
                    params={},
                    inputs=[],
                )
            )
        else:
            out.append(spec)
    return out


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
    merged_services = {"replay_archive": archive}
    if services:
        merged_services.update(services)
    return FptCore(
        specs, registry, SimClock(), queue_capacity,
        services=merged_services, telemetry=telemetry,
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
        feeding = archive.records_for_outputs(
            f"{edge.src_instance}.{edge.output_name}"
            for edge in core.edges
            if edge.dst_instance == instance_id
        )
        result.expected[instance_id] = [
            r.value for r in feeding if isinstance(r.value, Alarm)
        ]
    return result


def archived_stats_rounds(
    archive: ReplayArchive, instance_id: str = "analysis_bb",
    output: str = "stats",
) -> List[dict]:
    """Decoded per-round analysis ``stats`` dicts from an archive.

    Drop-in input for :func:`repro.experiments.sweep.blackbox_fp_sweep`
    / ``whitebox_fp_sweep`` -- threshold re-tuning over a captured trace
    without re-running the cluster.
    """
    return [
        r.value
        for r in archive.samples_for_output(f"{instance_id}.{output}")
        if isinstance(r.value, dict)
    ]
