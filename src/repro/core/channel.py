"""Data channels connecting module outputs to module inputs.

The fpt-core DAG's edges are *connections*: a module declares named
:class:`Output` ports at init time; the configuration wires each output to
one or more named inputs of downstream modules.  Because a single input
name may be bound to *all* outputs of another instance (the ``@instance``
configuration syntax), inputs are modelled as :class:`InputGroup` -- an
ordered list of :class:`Connection` objects sharing one input name.

Every value written to an output is timestamped, producing a
:class:`Sample`.  Connections buffer samples in a bounded deque so a slow
analysis module drops the oldest data instead of growing without bound --
the rate-mismatch behaviour the paper describes in section 3.7 (the
``ibuffer`` module exists to widen this buffering when an analysis module
wants to consume batches).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Iterator, List, NamedTuple, Optional

from .errors import ModuleError

#: Default per-connection buffer capacity (samples).
DEFAULT_QUEUE_CAPACITY = 256


@dataclass(frozen=True)
class Origin:
    """Provenance metadata attached to an output.

    Analysis modules use origin information to attribute anomalies to a
    node (``node``) and to know what they are looking at (``source`` is
    the collector type, e.g. ``"sadc"``; ``metric`` names the quantity).
    """

    node: str = ""
    source: str = ""
    metric: str = ""

    def describe(self) -> str:
        """Human-readable one-line description used in alarms."""
        parts = [p for p in (self.node, self.source, self.metric) if p]
        return "/".join(parts) if parts else "<unknown>"


class Sample(NamedTuple):
    """A single timestamped value flowing along a connection."""

    timestamp: float
    value: Any


#: What ``Sample(timestamp, value)`` ends in; ``Output.write`` calls it
#: directly, a sample per write being the core's commonest object.
_new_sample = tuple.__new__


class Connection:
    """One edge of the DAG: a buffered subscription of an input to an output."""

    def __init__(self, output: "Output", capacity: int = DEFAULT_QUEUE_CAPACITY) -> None:
        self.output = output
        self._queue: Deque[Sample] = deque(maxlen=capacity)
        self.total_received = 0
        self.total_dropped = 0
        #: Buffered-but-unread samples discarded by ``latest()`` when a
        #: consumer only wants the newest value.  Distinct from
        #: ``total_dropped`` (capacity overflow): skipping is the consumer
        #: choosing to ignore backlog, dropping is the buffer losing data.
        self.total_skipped = 0
        #: Instance id of the module that owns this connection; set by the
        #: DAG builder so the scheduler can attribute writes to consumers.
        self.owner_instance: Optional[str] = None

    @property
    def origin(self) -> Optional[Origin]:
        return self.output.origin

    def __len__(self) -> int:
        return len(self._queue)

    def pop_all(self) -> List[Sample]:
        """Drain and return every buffered sample, oldest first."""
        samples = list(self._queue)
        self._queue.clear()
        return samples

    def pop(self) -> Optional[Sample]:
        """Remove and return the oldest buffered sample, or ``None``."""
        if self._queue:
            return self._queue.popleft()
        return None

    def latest(self) -> Optional[Sample]:
        """Drain the buffer and return only the newest sample, or ``None``.

        Older buffered samples are discarded and accounted for in
        ``total_skipped`` so rate-mismatch loss stays visible in
        :meth:`Output.stats` and telemetry.
        """
        if not self._queue:
            return None
        sample = self._queue[-1]
        self.total_skipped += len(self._queue) - 1
        self._queue.clear()
        return sample

    def peek(self) -> Optional[Sample]:
        """Return the oldest buffered sample without consuming it."""
        if self._queue:
            return self._queue[0]
        return None

    @property
    def depth(self) -> int:
        """Samples currently buffered (telemetry-friendly alias of len)."""
        return len(self._queue)

    @property
    def capacity(self) -> int:
        return self._queue.maxlen or 0


class WriteHookChain:
    """An explicit ``on_write`` hook chain, fired in attachment order.

    Observers of an output (telemetry tap, flight recorder, latency
    tracer, test spies) are entries of one list, so a write costs one
    loop however many are attached and the chain stays introspectable.
    Built by :meth:`Output.add_write_hook`.  Trigger counting is not
    among them (see :meth:`Output.write`).
    """

    __slots__ = ("hooks",)

    def __init__(self, hooks) -> None:
        self.hooks = list(hooks)

    def __call__(self, output: "Output", sample: Sample) -> None:
        for hook in self.hooks:
            hook(output, sample)


class InputGroup:
    """All connections bound to one named input of a module instance."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.connections: List[Connection] = []

    def __len__(self) -> int:
        return len(self.connections)

    def __iter__(self) -> Iterator[Connection]:
        return iter(self.connections)

    def __getitem__(self, index: int) -> Connection:
        return self.connections[index]

    def single(self) -> Connection:
        """Return the group's only connection.

        Modules that require exactly one upstream output on an input call
        this in ``init()`` to fail fast on miswiring.
        """
        if len(self.connections) != 1:
            raise ModuleError(
                f"input '{self.name}' expects exactly one connection, "
                f"has {len(self.connections)}"
            )
        return self.connections[0]

    def pop_latest_vector(self) -> List[Optional[Sample]]:
        """Consume the newest sample of each connection, preserving order."""
        return [conn.latest() for conn in self.connections]


@dataclass
class Output:
    """A named output port of a module instance.

    Outputs are created by modules during ``init()`` via
    :meth:`repro.core.module.ModuleContext.create_output`.  Writing to an
    output timestamps the value (using the core's clock), fans it out to
    every subscribed connection, counts it towards the consumers'
    input triggers and then notifies the observers on ``on_write``.
    """

    owner_id: str
    name: str
    origin: Optional[Origin] = None
    subscribers: List[Connection] = field(default_factory=list)
    #: Observers, called as ``on_write(output, sample)`` after every
    #: write: ``None``, one hook, or a :class:`WriteHookChain` (see
    #: :meth:`add_write_hook`).  Scheduling does not depend on it.
    on_write: Optional[Callable[["Output", Sample], None]] = None
    total_written: int = 0
    #: ``"<owner_id>.<name>"``, the key every observer files this output
    #: under; built once because taps read it on every write.
    full_name: str = field(init=False, repr=False, compare=False)
    #: The trigger plan: the scheduler's cell of each consumer a write
    #: counts towards (empty while no scheduler attached the output).
    #: ``None`` means stale: the next write asks ``_planner``, installed
    #: by ``Scheduler.attach_output``, for a new one.
    _plan: Optional[tuple] = field(
        default=(), init=False, repr=False, compare=False)
    _planner: Optional[Callable[["Output"], tuple]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.full_name = f"{self.owner_id}.{self.name}"

    def add_write_hook(self, hook: Callable[["Output", Sample], None]) -> None:
        """Append ``hook`` to the observers fired after every write.

        The first hook is installed as it is; a second one turns
        ``on_write`` into a :class:`WriteHookChain` (whatever was
        installed before fires first).
        """
        existing = self.on_write
        if existing is None:
            self.on_write = hook
        elif isinstance(existing, WriteHookChain):
            existing.hooks.append(hook)
        else:
            self.on_write = WriteHookChain([existing, hook])

    def subscribe(self, capacity: int = DEFAULT_QUEUE_CAPACITY) -> Connection:
        """Create and register a new connection fed by this output."""
        connection = Connection(self, capacity=capacity)
        self.subscribers.append(connection)
        self._plan = None
        return connection

    def unsubscribe(self, connection: Connection) -> None:
        """Stop feeding ``connection``; unknown connections are ignored."""
        if connection in self.subscribers:
            self.subscribers.remove(connection)
            self._plan = None

    def write(self, value: Any, timestamp: float) -> None:
        """Publish ``value`` at ``timestamp`` to all subscribers.

        The hottest call in the core (every metric vector, classification
        and window statistic passes through it), so one flat pass with
        nothing looked up by name: build the sample, push it to the
        queues, bump the plan's trigger cells (queueing a consumer that
        reached its threshold, once), call the observers.
        """
        sample = _new_sample(Sample, (timestamp, value))
        self.total_written += 1
        for connection in self.subscribers:
            queue = connection._queue
            if len(queue) == queue.maxlen:
                connection.total_dropped += 1
            queue.append(sample)
            connection.total_received += 1
        plan = self._plan
        if plan is None:
            planner = self._planner
            plan = self._plan = planner(self) if planner is not None else ()
        for cell in plan:
            count = cell.count = cell.count + 1
            if count >= cell.threshold and not cell.queued:
                cell.queued = True
                cell.enqueue(cell)
        hook = self.on_write
        if hook is not None:
            hook(self, sample)

    def subscriber_depths(self) -> List[int]:
        """Current buffered-sample count of each subscriber queue."""
        return [len(connection) for connection in self.subscribers]

    def stats(self) -> dict:
        """Write/queue accounting for this output (telemetry snapshot)."""
        return {
            "output": self.full_name,
            "written": self.total_written,
            "subscribers": len(self.subscribers),
            "queue_depths": self.subscriber_depths(),
            "dropped": sum(c.total_dropped for c in self.subscribers),
            "skipped": sum(c.total_skipped for c in self.subscribers),
            "received": sum(c.total_received for c in self.subscribers),
        }
