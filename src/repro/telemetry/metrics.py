"""Self-instrumentation metrics: counters, gauges and histograms.

The paper devotes Tables 3 and 4 to quantifying ASDF's *own* footprint;
this module is the reproduction's equivalent of the bookkeeping behind
those tables, generalized into a small dependency-free metrics registry
(in the spirit of DCDB Wintermute's holistic operational-data layer).

Design points:

* **Families and children.**  A metric *family* is a name, a type and a
  help string; a *child* is one labelled time series within the family
  (e.g. ``fpt_instance_runs_total{instance="sadc_slave01",
  reason="periodic"}``).  Children are created on first use and cached,
  so hot paths hold a direct reference and pay one attribute access per
  update.
* **Three child kinds that read as a number.**  A :class:`Counter` and
  a :class:`Gauge` are *pushed*: the owner of the number calls ``inc`` /
  ``set`` when it changes.  A :class:`ReadGauge` is *pulled*: it holds a
  callable and evaluates it when somebody asks (``value()``,
  ``total()``, ``snapshot()``, ``render_prometheus()``).  It is for
  numbers their owner keeps anyway (an output's ``total_written``, an
  RPC endpoint's ``ByteCounter``, the flight recorder's totals, a
  connection's drop counter): publishing them costs nothing on the hot
  path and the scrape sees the current value, not the value at the last
  push.  ``read_gauge`` files it in a ``gauge`` family, ``read_counter``
  (for a number that only grows) in a ``counter`` family; either way it
  renders exactly as the pushed child of that kind does.
* **Fixed-bucket histograms.**  Buckets are chosen at creation time and
  never resize; an observation finds its bucket by ``bisect``, so it
  costs the same in the first bucket and past the last.
* **Two expositions.**  ``render_prometheus`` emits the Prometheus text
  format (version 0.0.4) so dumps can be diffed, scraped or loaded into
  promtool; ``snapshot`` returns plain dicts for JSON serialization and
  programmatic consumption (the Table 3 benchmark reads it).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "ReadGauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
]

#: Default histogram buckets for run latencies, in seconds.  Module runs
#: in this codebase span ~1 microsecond (a no-op sink) to ~100 ms (a full
#: analysis round over 60-sample windows on every node).
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(pairs: LabelPairs, extra: Sequence[Tuple[str, str]] = ()) -> str:
    items = list(pairs) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


#: One process-wide lock serializes every metric child's compound update:
#: values are written from scenario/poller threads and scraped by the ops
#: HTTP thread, and ``+=`` is not atomic under concurrent writers.
#: Shared (rather than per-child) because updates are low-rate and an
#: uncontended acquire is cheaper than a lock object per metric.
_VALUES_LOCK = threading.Lock()


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with _VALUES_LOCK:
            self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, lag)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        with _VALUES_LOCK:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with _VALUES_LOCK:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with _VALUES_LOCK:
            self.value -= amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is below it (high-watermark)."""
        with _VALUES_LOCK:
            if value > self.value:
                self.value = float(value)


class ReadGauge:
    """A gauge read from its owner when scraped, never pushed.

    ``read`` is called on the scraping thread; it should be a plain read
    of numbers the owner maintains (no compound update, no lock).
    """

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], float]) -> None:
        self.read = read

    @property
    def value(self) -> float:
        return float(self.read())


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``bucket_counts[i]`` counts observations ``<= upper_bounds[i]``
    (non-cumulative internally; cumulated at exposition time).  An
    implicit ``+Inf`` bucket catches everything above the last bound.
    """

    __slots__ = ("upper_bounds", "bucket_counts", "overflow", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must be sorted and non-empty: {buckets}")
        self.upper_bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        counts = self.bucket_counts
        index = bisect_left(self.upper_bounds, value)
        with _VALUES_LOCK:
            self.sum += value
            self.count += 1
            if index < len(counts):
                counts[index] += 1
            else:
                self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.upper_bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.overflow))
        return out


class _Family:
    """One named metric family: type, help text and labelled children."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = tuple(buckets) if buckets is not None else None
        self.children: Dict[LabelPairs, object] = {}

    def child(self, key: LabelPairs):
        child = self.children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS_S)
            self.children[key] = child
        return child


class MetricsRegistry:
    """Registry of metric families with Prometheus/JSON expositions.

    Lookup methods return the live child object so call sites can cache
    it and skip the registry on the hot path::

        runs = registry.counter("fpt_instance_runs_total",
                                "Module runs", {"instance": "sadc01"})
        runs.inc()
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- family/child access -------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str,
                buckets: Optional[Sequence[float]] = None) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric '{name}' already registered as {family.kind}, "
                    f"requested {kind}"
                )
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._family(name, "counter", help_text).child(_label_key(labels))

    def gauge(self, name: str, help_text: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._family(name, "gauge", help_text).child(_label_key(labels))

    def read_gauge(self, name: str, help_text: str,
                   read: Callable[[], float],
                   labels: Optional[Mapping[str, str]] = None) -> ReadGauge:
        """Bind a gauge child to ``read``, evaluated on every scrape.

        Replaces whatever child the label set had, so the latest owner
        of a series is the one that is read.
        """
        return self._bind_read("gauge", name, help_text, read, labels)

    def read_counter(self, name: str, help_text: str,
                     read: Callable[[], float],
                     labels: Optional[Mapping[str, str]] = None) -> ReadGauge:
        """:meth:`read_gauge` for a count its owner only ever raises."""
        return self._bind_read("counter", name, help_text, read, labels)

    def _bind_read(self, kind, name, help_text, read, labels) -> ReadGauge:
        child = ReadGauge(read)
        self._family(name, kind, help_text).children[_label_key(labels)] = child
        return child

    def histogram(self, name: str, help_text: str = "",
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._family(name, "histogram", help_text, buckets).child(
            _label_key(labels)
        )

    # -- introspection -------------------------------------------------------

    def families(self) -> List[str]:
        return sorted(self._families)

    def iter_children(self, name: str) -> Iterable[Tuple[LabelPairs, object]]:
        family = self._families.get(name)
        if family is None:
            return ()
        return list(family.children.items())  # a scrape may race a bind

    def value(self, name: str, labels: Optional[Mapping[str, str]] = None) -> float:
        """Current value of a counter/gauge child (0.0 if absent)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family.children.get(_label_key(labels))
        if child is None:
            return 0.0
        if isinstance(child, Histogram):
            return child.sum
        return child.value  # type: ignore[union-attr]

    def total(self, name: str) -> float:
        """Sum of a family across all children (histograms sum their sums)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        total = 0.0
        for child in family.children.values():
            total += child.sum if isinstance(child, Histogram) else child.value  # type: ignore[union-attr]
        return total

    # -- expositions ---------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 of every family."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                if isinstance(child, Histogram):
                    for bound, cumulative in child.cumulative_buckets():
                        labels = _format_labels(key, [("le", _format_value(bound))])
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    lines.append(f"{name}_sum{_format_labels(key)} {repr(child.sum)}")
                    lines.append(f"{name}_count{_format_labels(key)} {child.count}")
                else:
                    value = child.value  # type: ignore[union-attr]
                    lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-serializable dump of every family and child."""
        out: dict = {}
        for name, family in sorted(self._families.items()):
            entries = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: dict = {"labels": dict(key)}
                if isinstance(child, Histogram):
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                    entry["mean"] = child.mean
                    entry["buckets"] = [
                        # "le" as a string keeps the dump strict JSON
                        # (float("inf") is not valid JSON).
                        {"le": _format_value(b), "cumulative": c}
                        for b, c in child.cumulative_buckets()
                    ]
                else:
                    entry["value"] = child.value  # type: ignore[union-attr]
                entries.append(entry)
            out[name] = {
                "type": family.kind,
                "help": family.help,
                "series": entries,
            }
        return out

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
