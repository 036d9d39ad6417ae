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
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..telemetry import NULL_TELEMETRY, Telemetry
from .channel import Output, Sample, WriteHookChain
from .clock import Clock
from .errors import SchedulerError
from .module import Module, RunReason

#: Safety valve: maximum input-triggered runs drained per quiescence pass.
#: The DAG is acyclic so propagation terminates; this guards against a
#: buggy module writing to its own inputs through out-of-band channels.
MAX_DRAIN_RUNS = 100_000


class Scheduler:
    """Drives module execution against a :class:`Clock`."""

    def __init__(self, clock: Clock, telemetry: Optional[Telemetry] = None) -> None:
        self.clock = clock
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._heap: List[Tuple[float, int, str]] = []
        self._sequence = itertools.count()
        self._intervals: Dict[str, float] = {}
        self._instances: Dict[str, Module] = {}
        self._triggers: Dict[str, int] = {}
        self._update_counts: Dict[str, int] = {}
        #: Resolved consumer -> trigger-threshold cache.  ``Output.write``
        #: is the hottest call site in the core; recomputing
        #: ``connection_count()`` (a sum over all input groups) per write
        #: dominated scenario profiles.  Entries are filled lazily by
        #: ``_on_output_write`` and invalidated whenever registration
        #: state changes (``add_instance``, ``remove_instance``,
        #: ``set_trigger``).
        self._threshold_cache: Dict[str, int] = {}
        self._pending: deque = deque()
        self._pending_set: Set[str] = set()
        self._stopped = False
        #: Always-on run accounting, split by why each run happened and
        #: by which instance ran (plain ints: cheap enough to keep even
        #: with telemetry disabled).
        self.runs_by_reason: Dict[RunReason, int] = {r: 0 for r in RunReason}
        self.runs_by_instance: Dict[str, int] = {}
        #: Optional callback invoked as ``on_error(instance_id, exc)``;
        #: returning ``True`` suppresses the exception.
        self.on_error: Optional[Callable[[str, BaseException], bool]] = None

    @property
    def total_runs(self) -> int:
        """All run() dispatches, any reason (kept for backward compatibility)."""
        return sum(self.runs_by_reason.values())

    # -- registration --------------------------------------------------------

    def add_instance(self, module: Module) -> None:
        instance_id = module.instance_id
        if instance_id in self._instances:
            raise SchedulerError(f"instance '{instance_id}' already registered")
        self._instances[instance_id] = module
        self._update_counts[instance_id] = 0
        self._threshold_cache.pop(instance_id, None)

    def remove_instance(self, instance_id: str) -> None:
        """Detach an instance from scheduling (paper section 2.1).

        Pending heap entries for the instance are discarded lazily when
        they surface; queued input-triggered runs are dropped now.  A
        periodic instance may remove itself (or a peer) from inside its
        own ``run()``: dropping the interval here also cancels the
        re-arm that ``run_until`` would otherwise attempt.
        """
        if instance_id not in self._instances:
            raise SchedulerError(f"no such instance '{instance_id}'")
        del self._instances[instance_id]
        self._update_counts.pop(instance_id, None)
        self._triggers.pop(instance_id, None)
        self._intervals.pop(instance_id, None)
        self._threshold_cache.pop(instance_id, None)
        if instance_id in self._pending_set:
            self._pending_set.discard(instance_id)
            self._pending = deque(
                pending for pending in self._pending if pending != instance_id
            )

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
        self._threshold_cache.pop(instance_id, None)

    def _is_own_hook(self, hook) -> bool:
        """True when ``hook`` is this scheduler's write hook.

        Bound-method objects are created afresh on every attribute
        access, so ``hook is self._on_output_write`` is always False;
        the underlying function and receiver must be compared instead.
        """
        return (
            getattr(hook, "__func__", None) is Scheduler._on_output_write
            and getattr(hook, "__self__", None) is self
        )

    def attach_output(self, output: Output) -> None:
        """Install the write hook that feeds input-trigger bookkeeping.

        Hooks already on the output (a telemetry probe, a test spy, the
        flight recorder) are kept and fire first; ours is appended
        through :meth:`Output.add_write_hook`.  Because a multi-hook
        ``on_write`` is an explicit :class:`WriteHookChain`, membership
        is checkable: attaching the same output twice is a no-op, and if
        a foreign framework replaced ``on_write`` wholesale (discarding
        a previous chain), a re-attach chains the bookkeeping behind the
        new hook instead of silently stacking a second one.
        """
        existing = output.on_write
        hooks = (
            existing.hooks if isinstance(existing, WriteHookChain)
            else (existing,)
        )
        if not any(self._is_own_hook(hook) for hook in hooks):
            output.add_write_hook(self._on_output_write)

    # -- write notification ---------------------------------------------------

    def _trigger_threshold(self, instance_id: str) -> int:
        explicit = self._triggers.get(instance_id)
        if explicit is not None:
            return explicit
        module = self._instances.get(instance_id)
        if module is None:
            return 1
        return max(1, module.ctx.connection_count())

    def _on_output_write(self, output: Output, sample: Sample) -> None:
        if self.telemetry.enabled:
            self.telemetry.record_write(output)
        update_counts = self._update_counts
        thresholds = self._threshold_cache
        instances = self._instances
        for connection in output.subscribers:
            consumer = connection.owner_instance
            if consumer is None or consumer not in instances:
                continue
            count = update_counts[consumer] + 1
            update_counts[consumer] = count
            threshold = thresholds.get(consumer)
            if threshold is None:
                threshold = self._trigger_threshold(consumer)
                thresholds[consumer] = threshold
            if count >= threshold:
                self._enqueue(consumer)

    def _enqueue(self, instance_id: str) -> None:
        if instance_id not in self._pending_set:
            self._pending.append(instance_id)
            self._pending_set.add(instance_id)

    # -- execution ------------------------------------------------------------

    def _run_instance(self, instance_id: str, reason: RunReason) -> None:
        module = self._instances[instance_id]
        self.runs_by_reason[reason] += 1
        self.runs_by_instance[instance_id] = (
            self.runs_by_instance.get(instance_id, 0) + 1
        )
        telemetry = self.telemetry
        if not telemetry.enabled:
            try:
                module.run(reason)
            except Exception as exc:  # noqa: BLE001 - reported via hook
                if self.on_error is None or not self.on_error(instance_id, exc):
                    raise
            return
        started = time.perf_counter()
        error: Optional[str] = None
        try:
            module.run(reason)
        except Exception as exc:  # noqa: BLE001 - reported via hook
            error = f"{type(exc).__name__}: {exc}"
            if self.on_error is None or not self.on_error(instance_id, exc):
                raise
        finally:
            telemetry.record_run(
                instance_id,
                reason.value,
                started,
                time.perf_counter() - started,
                self.clock.now(),
                error=error,
            )

    def _drain_input_triggered(self) -> None:
        if self.telemetry.enabled and self._pending:
            self.telemetry.record_drain_depth(len(self._pending))
        drained = 0
        while self._pending:
            drained += 1
            if drained > MAX_DRAIN_RUNS:
                raise SchedulerError(
                    "input-triggered run queue failed to quiesce; a module "
                    "is probably feeding its own inputs"
                )
            instance_id = self._pending.popleft()
            self._pending_set.discard(instance_id)
            self._update_counts[instance_id] = 0
            self._run_instance(instance_id, RunReason.INPUTS)

    def run_manual(self, instance_id: str) -> None:
        """Run one instance immediately, then propagate through the DAG."""
        if instance_id not in self._instances:
            raise SchedulerError(f"no such instance '{instance_id}'")
        self._run_instance(instance_id, RunReason.MANUAL)
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
        while self._heap and not self._stopped:
            deadline, _, instance_id = self._heap[0]
            if deadline > end_time:
                break
            heapq.heappop(self._heap)
            if instance_id not in self._instances:
                continue  # detached while a heap entry was pending
            self.clock.sleep_until(deadline)
            if self.telemetry.enabled:
                # Under a simulated clock the lag is 0 by construction;
                # under a wall clock it measures scheduler jitter.
                self.telemetry.record_periodic_lag(self.clock.now() - deadline)
            self._run_instance(instance_id, RunReason.PERIODIC)
            self._drain_input_triggered()
            # The run (or anything it triggered) may have removed this
            # very instance; re-arming then would resurrect it and the
            # old lookup raised KeyError on the dropped interval.
            interval = self._intervals.get(instance_id)
            if interval is not None and instance_id in self._instances:
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
