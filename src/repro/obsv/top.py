"""``repro top``: an ANSI terminal dashboard over an Observatory.

A pure renderer: :func:`render_top` turns the observatory's current
state into one framed string (node health, alarm counts, per-stage
latencies, hottest modules), and the CLI loop decides when to repaint.
Keeping rendering side-effect-free makes the dashboard testable without
a terminal and reusable for one-shot snapshots (``repro top --once``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .observatory import Observatory

__all__ = ["render_top", "CLEAR_SCREEN"]

#: ANSI: clear screen + home cursor (prepended by the live CLI loop).
CLEAR_SCREEN = "\x1b[2J\x1b[H"

_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"
_DIM = "\x1b[2m"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _fmt_s(value: Optional[float]) -> str:
    return f"{value:.1f}s" if value is not None else "-"


def _node_rows(observatory: Observatory, records: tuple) -> List[dict]:
    """Per-node alarm tallies from the alarm records, plus the truth label."""
    truth_by_node: Dict[str, str] = {}
    if observatory.truth.faulty_node is not None:
        truth_by_node[observatory.truth.faulty_node] = observatory.fault
    by_node: Dict[str, dict] = {}
    for record in records:
        row = by_node.setdefault(
            record.node, {"node": record.node, "alarms": 0, "last": None}
        )
        row["alarms"] += 1
        row["last"] = record.alarm_time
    for node in truth_by_node:
        by_node.setdefault(node, {"node": node, "alarms": 0, "last": None})
    for row in by_node.values():
        row["fault"] = truth_by_node.get(row["node"])
    return sorted(by_node.values(), key=lambda r: r["node"])


def render_top(
    observatory: Observatory, color: bool = True, top_modules: int = 8
) -> str:
    """One dashboard frame: header, nodes, latencies, hottest modules."""
    lines: List[str] = []
    records = observatory.records
    health = observatory.health_obj()
    sim = health.get("sim_time_s")
    header = (
        f"asdf top  sim={_fmt_s(sim)}  up={health['uptime_s']:.0f}s  "
        f"alarms={health['alarms_seen']}  "
        f"decisions={health['decisions_seen']}  "
        f"writes={health['writes_observed']}"
    )
    lines.append(_paint(header, _BOLD, color))
    lines.append("")

    # -- node health ---------------------------------------------------------
    rows = _node_rows(observatory, records)
    lines.append(_paint(f"{'node':<12} {'state':<10} {'alarms':>7} "
                        f"{'last alarm':>11} {'injected':<12}",
                        _DIM, color))
    if not rows:
        lines.append("  (no alarms and no registered faults yet)")
    for row in rows:
        if row["alarms"]:
            state, code = "ALARMED", _RED
        elif row["fault"]:
            state, code = "watch", _YELLOW
        else:
            state, code = "ok", _GREEN
        last = _fmt_s(row["last"]) if row["last"] is not None else "-"
        line = (
            f"{row['node']:<12} {state:<10} {row['alarms']:>7} "
            f"{last:>11} {row['fault'] or '-':<12}"
        )
        lines.append(_paint(line, code, color))
    lines.append("")

    # -- sample->alarm latency ----------------------------------------------
    alarm_rows = observatory.scoreboard_obj()["alarms"]
    lines.append(_paint("sample->alarm latency (via-chain)", _BOLD, color))
    if not any(r["sample_to_alarm_sim_s"]["count"] for r in alarm_rows.values()):
        lines.append("  (no measured alarms yet)")
    for output, row in alarm_rows.items():
        latency = row["sample_to_alarm_sim_s"]
        if not latency["count"]:
            continue
        lines.append(
            f"  {output:<22} n={latency['count']:<4} "
            f"p50={_fmt_s(latency['p50'])} p95={_fmt_s(latency['p95'])} "
            f"fingerpoint={_fmt_s(row['fingerpointing_latency_s'])}"
        )
    stage_rows = _stage_latency_rows(records)
    if stage_rows:
        lines.append(_paint("  per-stage mean:", _DIM, color))
        for stage, mean_s in stage_rows:
            lines.append(f"    {stage:<32} {mean_s:8.2f}s")
    lines.append("")

    # -- hottest modules -----------------------------------------------------
    if observatory.telemetry.enabled:
        stats = observatory.telemetry.run_stats()
        if stats:
            lines.append(_paint("hottest modules", _BOLD, color))
            hottest = sorted(
                stats.items(),
                key=lambda kv: kv[1].runs * kv[1].mean_latency_s,
                reverse=True,
            )
            for instance, s in hottest[:top_modules]:
                lines.append(
                    f"  {instance:<24} runs={s.runs:<7} "
                    f"mean={s.mean_latency_s * 1e3:7.3f}ms errors={s.errors}"
                )
    return "\n".join(lines) + "\n"


def _stage_latency_rows(records: tuple) -> List[tuple]:
    """Mean per-stage sim latency over the alarm records."""
    sums: Dict[str, List[float]] = {}
    for record in records:
        for stage in record.stages:
            if stage.sim_s is not None:
                sums.setdefault(stage.output, []).append(stage.sim_s)
    return [
        (stage, sum(values) / len(values))
        for stage, values in sorted(sums.items())
    ]
