"""Deterministic scheduler dispatching module ``run()`` calls.

Two scheduling mechanisms coexist, matching the paper's section 3.3:

* **Periodic** -- data-collection modules request execution at a fixed
  frequency (``ModuleContext.schedule_every``).  The scheduler keeps a
  time-ordered heap of (deadline, instance) entries and fires them in
  deadline order, re-arming each after it runs.
* **Input-triggered** -- analysis modules run whenever a configurable
  number of their inputs have received new samples.  Every
  ``Output.write`` increments the consuming instance's update counter;
  once the counter reaches the instance's trigger threshold the instance
  is queued and run as soon as the current ``run()`` returns.

Input-triggered work is drained to quiescence after every periodic event,
so within one timestamp data propagates through the whole DAG before time
advances -- this is what makes simulated runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..telemetry import NULL_TELEMETRY, Telemetry
from .channel import Output
from .clock import Clock
from .errors import SchedulerError
from .module import Module, RunReason

#: Safety valve: maximum input-triggered runs drained per quiescence pass.
#: The DAG is acyclic so propagation terminates; this guards against a
#: buggy module writing to its own inputs through out-of-band channels.
MAX_DRAIN_RUNS = 100_000


class TriggerCell:
    """One registered instance's scheduling state.

    ``Output.write`` works on its consumers' cells directly: ``count``
    input writes since the last input-triggered run; at ``threshold`` the
    cell goes on the run queue (``enqueue`` is the queue's ``append``),
    once, which ``queued`` remembers.  ``probe`` is telemetry's
    :class:`~repro.telemetry.facade.RunProbe` for the instance, ``None``
    while telemetry is off.
    """

    __slots__ = ("module", "count", "threshold", "queued", "runs", "enqueue",
                 "probe")

    def __init__(self, module: Module, enqueue: Callable) -> None:
        self.module = module
        self.count = 0
        self.threshold = 1
        self.queued = False
        self.runs = 0
        self.enqueue = enqueue
        self.probe = None


class Scheduler:
    """Drives module execution against a :class:`Clock`."""

    def __init__(self, clock: Clock, telemetry: Optional[Telemetry] = None) -> None:
        self.clock = clock
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._heap: List[Tuple[float, int, str]] = []
        self._sequence = itertools.count()
        self._intervals: Dict[str, float] = {}
        self._cells: Dict[str, TriggerCell] = {}
        self._triggers: Dict[str, int] = {}
        #: The run queue of cells.  Never rebound: every cell holds its
        #: ``append``.
        self._pending: deque = deque()
        #: Outputs holding a compiled plan.  ``add_instance``,
        #: ``remove_instance`` and ``set_trigger`` make every plan stale
        #: (``Output.subscribe`` / ``unsubscribe`` their own output's);
        #: the output's next write compiles it again.
        self._planned: List[Output] = []
        self._stopped = False
        #: Always-on run accounting in plain ints, read through
        #: ``runs_by_reason`` / ``runs_by_instance`` / ``total_runs``.
        self._periodic_runs = 0
        self._input_runs = 0
        self._manual_runs = 0
        self._retired_runs: Dict[str, int] = {}
        #: Telemetry's two scheduler-wide histograms, their ``observe``
        #: bound once (``None`` while telemetry is off).
        self._observe_drain = self._observe_lag = None
        if self.telemetry.enabled:
            self._observe_drain = self.telemetry.drain_depth_histogram().observe
            self._observe_lag = self.telemetry.periodic_lag_histogram().observe
        #: Optional callback invoked as ``on_error(instance_id, exc)``;
        #: returning ``True`` suppresses the exception.
        self.on_error: Optional[Callable[[str, BaseException], bool]] = None

    @property
    def runs_by_reason(self) -> Dict[RunReason, int]:
        """run() dispatches split by why each happened."""
        return {
            RunReason.PERIODIC: self._periodic_runs,
            RunReason.INPUTS: self._input_runs,
            RunReason.MANUAL: self._manual_runs,
        }

    @property
    def runs_by_instance(self) -> Dict[str, int]:
        """run() dispatches per instance that ever ran, removed ones too."""
        runs = dict(self._retired_runs)
        runs.update((i, cell.runs) for i, cell in self._cells.items() if cell.runs)
        return runs

    @property
    def total_runs(self) -> int:
        """All run() dispatches, any reason."""
        return self._periodic_runs + self._input_runs + self._manual_runs

    # -- registration --------------------------------------------------------

    def add_instance(self, module: Module) -> None:
        instance_id = module.instance_id
        if instance_id in self._cells:
            raise SchedulerError(f"instance '{instance_id}' already registered")
        cell = TriggerCell(module, self._pending.append)
        if self.telemetry.enabled:
            cell.probe = self.telemetry.run_probe(instance_id)
        cell.runs = self._retired_runs.pop(instance_id, 0)
        self._cells[instance_id] = cell
        self._invalidate_plans()

    def remove_instance(self, instance_id: str) -> None:
        """Detach an instance from scheduling (paper section 2.1).

        Its pending heap entries and a queued input-triggered run are
        dropped now, so a later instance with the same id keeps only its
        own schedule.  A periodic instance may remove itself (or a peer)
        from inside its own ``run()``: dropping the interval here also
        cancels the re-arm that ``run_until`` would otherwise attempt.
        """
        cell = self._cells.pop(instance_id, None)
        if cell is None:
            raise SchedulerError(f"no such instance '{instance_id}'")
        if cell.queued:
            self._pending.remove(cell)
        if cell.runs:
            self._retired_runs[instance_id] = cell.runs
        self.forget((instance_id,))

    def forget(self, instance_ids: Sequence[str]) -> None:
        """Drop what instances asked of the scheduler: intervals, heap
        entries and trigger counts.  ``remove_instance`` calls it for an
        added instance, a failed attach for instances never added."""
        gone = set(instance_ids)
        for instance_id in gone:
            self._intervals.pop(instance_id, None)
            self._triggers.pop(instance_id, None)
        self._heap = [entry for entry in self._heap if entry[2] not in gone]
        heapq.heapify(self._heap)
        self._invalidate_plans()

    def schedule_periodic(self, instance_id: str, interval: float, phase: float) -> None:
        if interval <= 0:
            raise SchedulerError(
                f"non-positive interval {interval} for '{instance_id}'"
            )
        self._intervals[instance_id] = interval
        first = self.clock.now() + phase
        heapq.heappush(self._heap, (first, next(self._sequence), instance_id))

    def set_trigger(self, instance_id: str, updates: int) -> None:
        self._triggers[instance_id] = updates
        self._invalidate_plans()

    def attach_output(self, output: Output) -> None:
        """Count ``output``'s writes towards its consumers' triggers.

        A second call is a no-op.  Counting is not an ``on_write`` hook,
        so nothing done to ``on_write`` drops or doubles it; telemetry,
        when enabled, binds the output's series here (they export 0
        until the first write) and installs its one tap.
        """
        if output._planner == self._compile_plan:
            return
        output._planner = self._compile_plan
        output._plan = None
        if self.telemetry.enabled:
            output.add_write_hook(self.telemetry.watch_output(output))

    # -- trigger plans --------------------------------------------------------

    def _compile_plan(self, output: Output) -> tuple:
        """The cells a write to ``output`` counts towards: one entry per
        connection of a registered instance, in subscriber order (the
        order consumers are queued in), thresholds resolved -- the
        explicit trigger, else one write per upstream connection."""
        cells = []
        for connection in output.subscribers:
            cell = self._cells.get(connection.owner_instance)
            if cell is None:
                continue
            explicit = self._triggers.get(connection.owner_instance)
            cell.threshold = (
                explicit if explicit is not None
                else max(1, cell.module.ctx.connection_count())
            )
            cells.append(cell)
        self._planned.append(output)
        return tuple(cells)

    def _invalidate_plans(self) -> None:
        for output in self._planned:
            output._plan = None
        self._planned.clear()

    # -- execution ------------------------------------------------------------

    def _run_cell(self, cell: TriggerCell, reason: RunReason) -> None:
        cell.runs += 1
        module = cell.module
        probe = cell.probe
        started = time.perf_counter() if probe is not None else None
        error: Optional[str] = None
        try:
            module.run(reason)
        except Exception as exc:  # noqa: BLE001 - reported via hook
            error = f"{type(exc).__name__}: {exc}"
            if self.on_error is None or not self.on_error(module.instance_id, exc):
                raise
        finally:
            if probe is not None:
                probe(reason.value, started, time.perf_counter() - started,
                      self.clock.now(), error)

    def _drain_input_triggered(self) -> None:
        pending = self._pending
        if pending and self._observe_drain is not None:
            self._observe_drain(len(pending))
        drained = 0
        while pending:
            drained += 1
            if drained > MAX_DRAIN_RUNS:
                raise SchedulerError(
                    "input-triggered run queue failed to quiesce; a module "
                    "is probably feeding its own inputs"
                )
            cell = pending.popleft()
            cell.queued = False
            cell.count = 0
            self._input_runs += 1
            self._run_cell(cell, RunReason.INPUTS)

    def run_manual(self, instance_id: str) -> None:
        """Run one instance immediately, then propagate through the DAG."""
        cell = self._cells.get(instance_id)
        if cell is None:
            raise SchedulerError(f"no such instance '{instance_id}'")
        self._manual_runs += 1
        self._run_cell(cell, RunReason.MANUAL)
        self._drain_input_triggered()

    def next_deadline(self) -> Optional[float]:
        """Deadline of the earliest pending periodic event, or ``None``."""
        return self._heap[0][0] if self._heap else None

    def run_until(self, end_time: float) -> int:
        """Process every periodic event with deadline <= ``end_time``.

        Advances the clock to each event's deadline (sleeping under a wall
        clock, jumping under a simulated one), fires the event, drains all
        resulting input-triggered runs, and re-arms the event.  Returns the
        number of periodic events processed.  Afterwards the clock rests
        at ``end_time``.
        """
        if end_time < self.clock.now():
            raise SchedulerError(
                f"run_until target {end_time} is in the past "
                f"(now={self.clock.now()})"
            )
        processed = 0
        self._stopped = False
        observe_lag = self._observe_lag
        while self._heap and not self._stopped:
            deadline, _, instance_id = self._heap[0]
            if deadline > end_time:
                break
            heapq.heappop(self._heap)
            cell = self._cells.get(instance_id)
            if cell is None:
                continue  # scheduled by an init() whose attach is under way
            self.clock.sleep_until(deadline)
            if observe_lag is not None:
                # Under a simulated clock the lag is 0 by construction;
                # under a wall clock it measures scheduler jitter.
                observe_lag(max(0.0, self.clock.now() - deadline))
            self._periodic_runs += 1
            self._run_cell(cell, RunReason.PERIODIC)
            self._drain_input_triggered()
            # The run (or anything it triggered) may have removed this
            # very instance; re-arming then would resurrect it and the
            # old lookup raised KeyError on the dropped interval.
            interval = self._intervals.get(instance_id)
            if interval is not None and instance_id in self._cells:
                heapq.heappush(
                    self._heap,
                    (deadline + interval, next(self._sequence), instance_id),
                )
            processed += 1
        if not self._stopped:
            self.clock.sleep_until(end_time)
        return processed

    def run_for(self, duration: float) -> int:
        """Convenience wrapper: run for ``duration`` seconds from now."""
        return self.run_until(self.clock.now() + duration)

    def stop(self) -> None:
        """Request that the current ``run_until`` loop exit early.

        Intended to be called from a module's ``run()`` (e.g. an alarm
        sink that has seen enough) or from another thread under a wall
        clock.
        """
        self._stopped = True
