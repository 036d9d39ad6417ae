"""The scheduler's bookkeeping as it was before trigger plans, kept as
the parity oracle: an ``on_write`` hook that resolves every consumer of
every write through id-keyed dicts (registered instances, update
counts, a lazily filled threshold cache, a pending set beside the
pending queue).

:class:`repro.core.Scheduler` must dispatch exactly the runs
``ReferenceScheduler`` dispatches -- the same (instance, reason, clock)
sequence -- and leave every connection with the same counters.
``ReferenceCore`` wires it to a DAG the way :class:`repro.core.FptCore`
wires the real one, runtime attach and detach included.
"""

import heapq
import itertools
from collections import deque

from repro.core import RunReason, parse_config
from repro.core.dag import build_dag, detach_instance


class ReferenceScheduler:
    def __init__(self, clock):
        self.clock = clock
        self._heap = []
        self._sequence = itertools.count()
        self._intervals = {}
        self._instances = {}
        self._triggers = {}
        self._update_counts = {}
        self._threshold_cache = {}
        self._pending = deque()
        self._pending_set = set()
        self.runs_by_instance = {}

    # -- registration --------------------------------------------------------

    def add_instance(self, module):
        instance_id = module.instance_id
        assert instance_id not in self._instances
        self._instances[instance_id] = module
        self._update_counts[instance_id] = 0
        self._threshold_cache.pop(instance_id, None)

    def remove_instance(self, instance_id):
        del self._instances[instance_id]
        self._update_counts.pop(instance_id, None)
        self._triggers.pop(instance_id, None)
        self._intervals.pop(instance_id, None)
        self._threshold_cache.pop(instance_id, None)
        self._heap = [entry for entry in self._heap if entry[2] != instance_id]
        heapq.heapify(self._heap)
        if instance_id in self._pending_set:
            self._pending_set.discard(instance_id)
            self._pending = deque(
                pending for pending in self._pending if pending != instance_id
            )

    def schedule_periodic(self, instance_id, interval, phase):
        self._intervals[instance_id] = interval
        first = self.clock.now() + phase
        heapq.heappush(self._heap, (first, next(self._sequence), instance_id))

    def set_trigger(self, instance_id, updates):
        self._triggers[instance_id] = updates
        self._threshold_cache.pop(instance_id, None)

    def attach_output(self, output):
        output.add_write_hook(self._on_output_write)

    # -- write notification ----------------------------------------------------

    def _trigger_threshold(self, instance_id):
        explicit = self._triggers.get(instance_id)
        if explicit is not None:
            return explicit
        module = self._instances.get(instance_id)
        if module is None:
            return 1
        return max(1, module.ctx.connection_count())

    def _on_output_write(self, output, sample):
        for connection in output.subscribers:
            consumer = connection.owner_instance
            if consumer is None or consumer not in self._instances:
                continue
            count = self._update_counts[consumer] + 1
            self._update_counts[consumer] = count
            threshold = self._threshold_cache.get(consumer)
            if threshold is None:
                threshold = self._trigger_threshold(consumer)
                self._threshold_cache[consumer] = threshold
            if count >= threshold and consumer not in self._pending_set:
                self._pending.append(consumer)
                self._pending_set.add(consumer)

    # -- execution -------------------------------------------------------------

    def _run_instance(self, instance_id, reason):
        self.runs_by_instance[instance_id] = (
            self.runs_by_instance.get(instance_id, 0) + 1
        )
        self._instances[instance_id].run(reason)

    def _drain_input_triggered(self):
        while self._pending:
            instance_id = self._pending.popleft()
            self._pending_set.discard(instance_id)
            self._update_counts[instance_id] = 0
            self._run_instance(instance_id, RunReason.INPUTS)

    def run_until(self, end_time):
        while self._heap:
            deadline, _, instance_id = self._heap[0]
            if deadline > end_time:
                break
            heapq.heappop(self._heap)
            if instance_id not in self._instances:
                continue
            self.clock.sleep_until(deadline)
            self._run_instance(instance_id, RunReason.PERIODIC)
            self._drain_input_triggered()
            interval = self._intervals.get(instance_id)
            if interval is not None and instance_id in self._instances:
                heapq.heappush(
                    self._heap,
                    (deadline + interval, next(self._sequence), instance_id),
                )
        self.clock.sleep_until(end_time)


class ReferenceCore:
    """``FptCore``'s wiring around a :class:`ReferenceScheduler`."""

    def __init__(self, text, registry, clock, queue_capacity, services):
        self.clock = clock
        self.scheduler = ReferenceScheduler(clock)
        self._build = dict(
            registry=registry, clock=clock, install_hooks=self._install_hooks,
            queue_capacity=queue_capacity, services=services,
        )
        self.dag = build_dag(parse_config(text), **self._build)
        self._register(self.dag.topological_order())

    def _install_hooks(self, ctx):
        ctx._schedule_periodic = self.scheduler.schedule_periodic
        ctx._set_trigger = self.scheduler.set_trigger

    def _register(self, instance_ids):
        for instance_id in instance_ids:
            self.scheduler.add_instance(self.dag.instances[instance_id])
            for output in self.dag.contexts[instance_id].outputs.values():
                self.scheduler.attach_output(output)

    def run_until(self, end_time):
        self.scheduler.run_until(end_time)

    def attach(self, text):
        known = set(self.dag.instances)
        build_dag(parse_config(text), existing=self.dag, **self._build)
        self._register([i for i in self.dag.instances if i not in known])

    def detach(self, instance_id):
        detach_instance(self.dag, instance_id)
        self.scheduler.remove_instance(instance_id)
