"""The metrics registry: counters and exact-quantile histograms.

Metrics are the aggregate face of the same data tracing records span by
span: a :class:`Tracer` constructed with ``metrics=MetricsRegistry()``
feeds every completed span into ``spans.<name>`` (a counter) and
``span_us.<name>`` (a histogram of durations); events land in
``events.<name>``.  That span feed is the registry's only writer;
components keep their own counts in their ``stats()``.

Histograms keep every observation, so quantiles are *exact* — the right
trade for a simulated substrate where determinism beats memory, and what
lets the trace-based tests assert precise numbers instead of bucketed
approximations.  ``snapshot()`` renders the whole registry as one
JSON-able dict.
"""

from __future__ import annotations

import threading
from math import ceil

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically-increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Histogram:
    """Every observation kept; quantiles by the nearest-rank rule."""

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._sorted: list[float] | None = None

    def observe(self, value: float) -> None:
        self._values.append(float(value))
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._values else 0.0

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile; ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self._values:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._values)
        rank = max(1, ceil(q * len(self._sorted)))
        return self._sorted[rank - 1]

    def snapshot(self) -> dict:
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": min(self._values),
            "max": max(self._values),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named metrics, created on first touch; snapshot-able as JSON.

    Thread-safe at the registry level (metric creation and the span
    feed); individual ``inc``/``observe`` calls on CPython are atomic
    enough for the simulated substrate and stay lock-free.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access (create on first touch) -------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            got = self._counters.get(name)
            if got is None:
                got = self._counters[name] = Counter(name)
            return got

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            got = self._histograms.get(name)
            if got is None:
                got = self._histograms[name] = Histogram(name)
            return got

    # -- the span feed -------------------------------------------------------

    def record_span(self, span) -> None:
        """Called by the tracer when a span or event completes."""
        if span.kind == "event":
            self.counter(f"events.{span.name}").inc()
            return
        self.counter(f"spans.{span.name}").inc()
        self.histogram(f"span_us.{span.name}").observe(span.duration_us)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """The whole registry as one sorted, JSON-able dict."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c
                             in sorted(self._counters.items())},
                "histograms": {name: h.snapshot() for name, h
                               in sorted(self._histograms.items())},
            }
