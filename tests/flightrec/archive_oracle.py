"""The per-line archive loader, kept as the oracle of the columnar one.

Before ``ReplayArchive`` held an archive as columns it decoded every
line of ``samples.jsonl`` into a :class:`OracleRecord` and indexed those
in one pass.  That loader lives on here unchanged in what it returns:
the columnar archive must agree with it record for record, and a replay
fed by :class:`OracleReplaySource` must raise the alarms a replay fed by
``replay_source`` raises.
"""

import json
import os
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List

from repro.core import Origin
from repro.core.errors import ConfigError
from repro.flightrec import ReplaySourceModule
from repro.flightrec.codec import decode_value
from repro.flightrec.recorder import (
    ARCHIVE_MANIFEST_FILE,
    ARCHIVE_OUTPUTS_FILE,
    ARCHIVE_SAMPLES_FILE,
)
from repro.modules import standard_registry


@dataclass(frozen=True)
class OracleRecord:
    at: float
    timestamp: float
    output: str
    value: object


class OracleArchive:
    """Every record decoded at load; per-instance and per-output
    questions answered from one index over them."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.manifest: dict = {}
        path = os.path.join(directory, ARCHIVE_MANIFEST_FILE)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.manifest = json.load(fh)
        self.records: List[OracleRecord] = []
        with open(os.path.join(directory, ARCHIVE_SAMPLES_FILE), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                self.records.append(OracleRecord(
                    at=float(obj["at"]), timestamp=float(obj["t"]),
                    output=sys.intern(obj["o"]), value=decode_value(obj["v"]),
                ))
        self.outputs: Dict[str, dict] = {}
        path = os.path.join(directory, ARCHIVE_OUTPUTS_FILE)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.outputs = json.load(fh)
        self.positions: Dict[str, array] = defaultdict(lambda: array("q"))
        for position, record in enumerate(self.records):
            self.positions[record.output].append(position)
        self.names: Dict[str, List[str]] = {}
        for name in dict.fromkeys(chain(self.outputs, self.positions)):
            meta = self.outputs.get(name)
            owner = meta["owner"] if meta else name.partition(".")[0]
            self.names.setdefault(owner, []).append(name)

    def select(self, full_names: Iterable[str]) -> List[OracleRecord]:
        found = [self.positions[n] for n in full_names if n in self.positions]
        merged = sorted(chain.from_iterable(found))
        return [self.records[position] for position in merged]

    def instances(self):
        return set(self.names)

    def outputs_of(self, instance_id: str) -> Dict[str, dict]:
        names = self.names.get(instance_id, ())
        metas = (self.outputs[name] for name in names if name in self.outputs)
        return {meta["name"]: meta for meta in metas}

    def records_for_instance(self, instance_id: str) -> List[OracleRecord]:
        return self.select(self.names.get(instance_id, ()))

    def records_for_outputs(self, full_names: Iterable[str]) -> List[OracleRecord]:
        return self.select(set(full_names))

    def samples_for_output(self, full_name: str) -> List[OracleRecord]:
        return self.select((full_name,))

    def end_time(self) -> float:
        return max((r.at for r in self.records), default=0.0)


class OracleReplaySource(ReplaySourceModule):
    """``replay_source`` as it was: a scan over decoded records."""

    def init(self) -> None:
        ctx = self.ctx
        archive: OracleArchive = ctx.service("replay_archive")
        self.source_id = ctx.param_str("instance") or ctx.instance_id
        metas = archive.outputs_of(self.source_id)
        if not metas:
            raise ConfigError(f"archive has no outputs for '{self.source_id}'")
        self._writes = {}
        for name in sorted(metas):
            origin = metas[name].get("origin")
            output = ctx.create_output(
                name, Origin(**origin) if isinstance(origin, dict) else None
            )
            self._writes[f"{self.source_id}.{name}"] = output.write
        self._records = archive.records_for_instance(self.source_id)
        self._pos = 0
        tick = ctx.param_float("tick")
        if tick <= 0.0:
            times = sorted({r.at for r in self._records})
            gaps = [b - a for a, b in zip(times, times[1:]) if b - a > 1e-9]
            tick = min(gaps) if gaps else 1.0
        ctx.schedule_every(tick, ctx.param_float("phase"))

    def run(self, reason) -> None:
        now = self.ctx.clock.now() + 1e-9
        records, pos = self._records, self._pos
        while pos < len(records) and records[pos].at <= now:
            record = records[pos]
            self._writes[record.output](record.value, record.timestamp)
            pos += 1
        self._pos = pos


def oracle_registry():
    """The standard registry with the oracle as ``replay_source``."""
    registry = standard_registry()
    registry.register(OracleReplaySource)
    return registry
