"""Append-only audit trail for fingerpointing alarms.

The paper's operators act on an alarm ("the ASDF administrator can
attach modules at runtime to drill down"); acting on a verdict requires
knowing *why* it fired.  Every alarm that reaches a terminal sink is
recorded here with enough context to reconstruct the decision after the
fact: when it fired (simulated time), which node was indicted, which
analysis raised it, the threshold evidence it carried, and which wired
inputs delivered it to which sink.

The trail is deliberately append-only -- records are never mutated or
removed -- so it can serve as the system of record for an incident
review or a false-positive post-mortem.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["AuditRecord", "AlarmAuditTrail"]


@dataclass(frozen=True)
class AuditRecord:
    """One alarm, as witnessed by one terminal sink."""

    time: float                     # simulated time the alarm fired
    node: str                       # the indicted (culprit) node
    source: str                     # analysis that raised it (blackbox/whitebox)
    detail: str                     # threshold evidence, e.g. "L1 66.2 > 65.0"
    sink: str                       # instance id of the sink that recorded it
    inputs: Tuple[str, ...] = ()    # upstream outputs that delivered the alarm

    def describe(self) -> str:
        via = f" via {','.join(self.inputs)}" if self.inputs else ""
        detail = f" ({self.detail})" if self.detail else ""
        source = f" [{self.source}]" if self.source else ""
        return (
            f"t={self.time:.0f}s{source} culprit={self.node}"
            f"{detail} -> {self.sink}{via}"
        )

    def to_json_obj(self) -> dict:
        return {
            "time": self.time,
            "node": self.node,
            "source": self.source,
            "detail": self.detail,
            "sink": self.sink,
            "inputs": list(self.inputs),
        }


class AlarmAuditTrail:
    """Grow-only record of every alarm that reached a sink."""

    def __init__(self) -> None:
        self._records: List[AuditRecord] = []

    def record(self, time: float, node: str, source: str, detail: str,
               sink: str, inputs: Tuple[str, ...] = ()) -> AuditRecord:
        entry = AuditRecord(
            time=time, node=node, source=source, detail=detail,
            sink=sink, inputs=inputs,
        )
        self._records.append(entry)
        return entry

    @property
    def records(self) -> Tuple[AuditRecord, ...]:
        """Immutable view; the trail itself cannot be edited through it."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def for_node(self, node: str) -> List[AuditRecord]:
        return [r for r in self._records if r.node == node]

    def culprits(self) -> List[str]:
        """Distinct indicted nodes, in first-indictment order."""
        seen: List[str] = []
        for record in self._records:
            if record.node not in seen:
                seen.append(record.node)
        return seen

    def filtered(
        self, tail: Optional[int] = None, since: Optional[float] = None
    ) -> List[AuditRecord]:
        """Records with ``time >= since``, then only the last ``tail``.

        Both filters are optional; with neither, the full trail is
        returned.  This backs the JSONL export's filters and the ops
        surface's ``/alarms`` query parameters.
        """
        records = self._records
        if since is not None:
            records = [r for r in records if r.time >= since]
        if tail is not None and tail >= 0:
            records = records[len(records) - tail:] if tail else []
        return list(records)

    def render_text(self, limit: Optional[int] = None) -> str:
        records = self._records if limit is None else self._records[:limit]
        lines = [record.describe() for record in records]
        if len(self._records) > len(records):
            lines.append(f"... and {len(self._records) - len(records)} more")
        return "\n".join(lines)

    def render_jsonl(
        self, tail: Optional[int] = None, since: Optional[float] = None
    ) -> str:
        records = self.filtered(tail=tail, since=since)
        return "\n".join(
            json.dumps(record.to_json_obj()) for record in records
        ) + ("\n" if records else "")

    def write_jsonl(
        self,
        path: str,
        tail: Optional[int] = None,
        since: Optional[float] = None,
    ) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render_jsonl(tail=tail, since=since))
