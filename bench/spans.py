"""Spans recorded from the harness around each layer's public calls.

The traced pass wraps the public entry points of ``src/`` (class
attributes such as ``InprocChannel.call`` or a module type's ``run``)
from here, so ``src/`` itself stays untouched.  Spans are kept in memory
as parallel lists and written out once, after the run.

A span is recorded only while a root span is open and only on the
thread that owns the recorder: the harness opens one root per tick or
round, so set-up work and the RPC server's threads never appear.
A layer's *self time* is its span minus the part its children cover, so
the self times of all spans add up to the traced wall exactly; the root
spans' own self time is what the harness itself cost.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Tuple, Union

ROOT = "harness.tick"

SpanName = Union[str, Callable[[Any], Union[str, None]]]


class SpanRecorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.repeats: List[int] = []
        self.repeat = 0
        self._stack: List[int] = []
        self._owner = threading.get_ident()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> None:
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.repeats.append(self.repeat)
        self.ends.append(0.0)
        stack.append(len(self.starts))
        self.starts.append(time.perf_counter())

    def end(self) -> None:
        self.ends[self._stack.pop()] = time.perf_counter()

    def abort_root(self) -> None:
        """Drop the open root and everything under it.

        ``run_scenario`` hands control back only through its tick
        callback, so the root opened by the last callback never closes.
        """
        if not self._stack:
            return
        root = self._stack[0]
        for column in (self.names, self.starts, self.ends, self.parents,
                       self.repeats):
            del column[root:]
        self._stack.clear()

    # -- patching ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: SpanName) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a function of the call's first
        argument returning the name (``None`` to leave the call alone).
        """
        original = getattr(owner, attr)
        stack = self._stack
        thread = self._owner
        begin, end = self.begin, self.end

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack or threading.get_ident() != thread:
                return original(*args, **kwargs)
            span = name if isinstance(name, str) else name(args[0])
            if span is None:
                return original(*args, **kwargs)
            begin(span)
            try:
                return original(*args, **kwargs)
            finally:
                end()

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """Self seconds per span name, and the traced wall."""
        covered = [0.0] * len(self.starts)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[index] - self.starts[index]
        by_name: Dict[str, float] = {}
        wall = 0.0
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            by_name[name] = by_name.get(name, 0.0) + duration - covered[index]
            if self.parents[index] < 0:
                wall += duration
        return by_name, wall

    def write(self, path: str) -> None:
        """Span file: ``[name, start, end, parent, repeat]`` per span.

        Times are seconds since the first span; no wall-clock stamp.
        """
        epoch = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        index_of = {name: i for i, name in enumerate(table)}
        spans = [
            [index_of[self.names[i]], round(self.starts[i] - epoch, 7),
             round(self.ends[i] - epoch, 7), self.parents[i], self.repeats[i]]
            for i in range(len(self.starts))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"columns": ["name", "start_s", "end_s", "parent", "repeat"],
                 "names": table, "spans": spans},
                fh, separators=(",", ":"),
            )
