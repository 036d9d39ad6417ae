"""Shared state directory: how cluster daemons find each other.

Every daemon binds ephemeral ports (RPC + ops HTTP) and publishes them,
with its pid, in a JSON *runtime file* inside the cluster's state
directory (``<dir>/<name>.json``, written atomically via rename).  The
central daemon discovers collection daemons by listing the directory;
after a daemon is killed and respawned, the fresh process overwrites its
runtime file and the central reconnects to the new ports.  A ``stop``
marker file asks every supervising loop to wind down -- the drive's
``--shutdown`` writes it, the launcher and daemons poll it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional

__all__ = [
    "DaemonRuntime",
    "STOP_FILE",
    "list_runtimes",
    "pid_alive",
    "read_runtime",
    "request_stop",
    "runtime_path",
    "stop_requested",
    "write_runtime",
]

STOP_FILE = "stop"


@dataclass(frozen=True)
class DaemonRuntime:
    """One daemon's published identity: who, where, since when."""

    role: str           # "node" or "central"
    name: str           # e.g. "node-01" or "central"
    pid: int
    host: str
    rpc_port: int       # 0 when the daemon serves no RPC (central)
    ops_port: int
    started_wall: float

    def to_json_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> Optional["DaemonRuntime"]:
        try:
            return cls(
                role=str(obj["role"]),
                name=str(obj["name"]),
                pid=int(obj["pid"]),
                host=str(obj["host"]),
                rpc_port=int(obj["rpc_port"]),
                ops_port=int(obj["ops_port"]),
                started_wall=float(obj["started_wall"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    @property
    def ops_url(self) -> str:
        return f"http://{self.host}:{self.ops_port}"


def runtime_path(state_dir: str, name: str) -> str:
    return os.path.join(state_dir, f"{name}.json")


def write_runtime(state_dir: str, runtime: DaemonRuntime) -> str:
    """Atomically publish a runtime file; returns its path."""
    os.makedirs(state_dir, exist_ok=True)
    path = runtime_path(state_dir, runtime.name)
    tmp = f"{path}.tmp.{runtime.pid}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(runtime.to_json_obj(), fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return path


def read_runtime(path: str) -> Optional[DaemonRuntime]:
    """Parse one runtime file; ``None`` on any malformed/vanished file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(obj, dict):
        return None
    return DaemonRuntime.from_json_obj(obj)


def list_runtimes(
    state_dir: str, role: Optional[str] = None
) -> Dict[str, DaemonRuntime]:
    """All published runtimes, by daemon name (optionally one role)."""
    out: Dict[str, DaemonRuntime] = {}
    try:
        entries = sorted(os.listdir(state_dir))
    except OSError:
        return out
    for entry in entries:
        if not entry.endswith(".json"):
            continue
        runtime = read_runtime(os.path.join(state_dir, entry))
        if runtime is None:
            continue
        if role is not None and runtime.role != role:
            continue
        out[runtime.name] = runtime
    return out


def pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def request_stop(state_dir: str, reason: str = "") -> str:
    """Drop the stop marker every cluster loop polls."""
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, STOP_FILE)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"reason": reason, "at_wall": time.time()}))
    return path


def stop_requested(state_dir: str) -> bool:
    return os.path.exists(os.path.join(state_dir, STOP_FILE))
