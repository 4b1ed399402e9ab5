"""Per-layer timing from outside the program under test.

The benchmark never edits ``src/``: it measures a layer by replacing a
bound method on one *instance* with a wrapper that times the call and
records a span.  Spans nest by call stack (every workload runs on one
thread), carry a request id and, on the serving workloads, the virtual
clock as well as the real one.  They stay in memory and are written out
when the run ends.

A span's self time is its duration minus the time its child spans
cover, so summing self times over a phase never counts a microsecond
twice.
"""

from __future__ import annotations

import time

from repro.core.fusion.kinds import FusionKind
from repro.device.counters import RunStats
from repro.runtime.engine import charge_kernel

__all__ = ["KINDS", "Recorder", "Span", "kernel_sim_us", "kernel_table"]

_now = time.perf_counter

#: metric-name stem per fusion kind (``kernel.<stem>.wall_us``).
KINDS = {kind: kind.name.lower() for kind in FusionKind}


class Span:
    """One timed call: real seconds, optional virtual microseconds."""

    __slots__ = ("name", "start", "end", "parent", "rid", "vstart", "vend",
                 "child_s", "attrs")

    def __init__(self, name: str, start: float, parent, rid, vstart,
                 attrs) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.vstart = vstart
        self.vend = vstart
        #: real seconds covered by direct children.
        self.child_s = 0.0
        self.attrs = attrs

    @property
    def duration_us(self) -> float:
        return (self.end - self.start) * 1e6

    @property
    def self_us(self) -> float:
        return (self.end - self.start - self.child_s) * 1e6


class Recorder:
    """In-memory span store fed by method wrappers.

    ``virtual_clock`` (a zero-argument callable returning virtual µs)
    stamps every span with the serving scheduler's clock too.  While
    ``paused`` the wrappers call straight through, so untimed work —
    reference runs, memory probes — leaves no spans.
    """

    def __init__(self, virtual_clock=None) -> None:
        self.spans: list[Span] = []
        #: (kernel span, kernel, model name, dims, fresh output buffers).
        self.kernel_calls: list[tuple] = []
        self.virtual_clock = virtual_clock
        #: request id stamped on spans opened from now on.
        self.rid = None
        self.paused = False
        self._stack: list[Span] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        vnow = self.virtual_clock() if self.virtual_clock else None
        span = Span(name, _now(), parent, self.rid, vnow, attrs or None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        if self.virtual_clock is not None:
            span.vend = self.virtual_clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def wrap(self, owner, attr: str, name: str):
        """Time every call of ``owner.<attr>`` as a ``name`` span;
        returns the original callable."""
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            span = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(span)

        setattr(owner, attr, timed)
        return original

    def wrap_kernels(self, executable, model: str) -> None:
        """Time every ``kernel.execute`` of ``executable``; each call
        also counts the output arrays that own fresh buffers."""
        for kernel in executable.kernels:
            self._wrap_kernel(kernel, model)

    def _wrap_kernel(self, kernel, model: str) -> None:
        original = kernel.execute
        calls = self.kernel_calls

        def execute(args, dims):
            if self.paused:
                return original(args, dims)
            span = self.open("kernel")
            try:
                outputs = original(args, dims)
            finally:
                self.close(span)
            fresh = sum(1 for out in outputs
                        if getattr(out, "flags", None) is not None
                        and out.flags.owndata)
            calls.append((span, kernel, model, dims, fresh))
            return outputs

        kernel.execute = execute

    # -- views -------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def summary(self, start: int = 0) -> dict:
        """Per span name: count, total and self real µs of the spans
        recorded from index ``start`` on."""
        out: dict[str, dict] = {}
        for span in self.spans[start:]:
            entry = out.setdefault(span.name, {"count": 0, "total_us": 0.0,
                                               "self_us": 0.0})
            entry["count"] += 1
            entry["total_us"] += span.duration_us
            entry["self_us"] += span.self_us
        return out

    def root_us(self, start: int = 0) -> float:
        """Real µs covered by parentless spans from index ``start`` on."""
        return sum(s.duration_us for s in self.spans[start:]
                   if s.parent is None)

    def to_json(self) -> list[dict]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [{"name": s.name,
                 "start_us": s.start * 1e6, "end_us": s.end * 1e6,
                 "parent": index.get(id(s.parent)),
                 "rid": s.rid,
                 "vstart_us": s.vstart, "vend_us": s.vend,
                 **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]


def kernel_sim_us(kernel, dims: dict, device, options) -> float:
    """Simulated µs of one launch, charged by the engine's own
    ``charge_kernel`` under ``options`` with heuristic schedule picks."""
    stats = RunStats()
    charge_kernel(kernel, dims, stats, None, options, device)
    return stats.device_time_us + stats.host_time_us


def kernel_table(calls: list, device, options, worst: int = 10) -> dict:
    """The two-clock kernel table: numpy wall µs next to simulated µs.

    Aggregated per fusion kind, plus the ``worst`` kernels by wall/sim
    ratio — where the cost model and the host disagree most.
    """
    sim_cache: dict = {}
    kinds: dict[str, dict] = {}
    kernels: dict[tuple, dict] = {}
    for span, kernel, model, dims, fresh in calls:
        key = (id(kernel), id(dims))
        sim = sim_cache.get(key)
        if sim is None:
            sim = sim_cache[key] = kernel_sim_us(kernel, dims, device,
                                                 options)
        wall = span.duration_us
        stem = KINDS[kernel.kind]
        for table, name in ((kinds, stem), (kernels, (model, kernel.name))):
            row = table.get(name)
            if row is None:
                row = table[name] = {"kind": stem, "calls": 0,
                                     "wall_us": 0.0, "sim_us": 0.0,
                                     "fresh_buffers": 0}
            row["calls"] += 1
            row["wall_us"] += wall
            row["sim_us"] += sim
            row["fresh_buffers"] += fresh
    ranked = sorted(
        ((name, row) for name, row in kernels.items() if row["sim_us"] > 0),
        key=lambda item: item[1]["wall_us"] / item[1]["sim_us"],
        reverse=True)
    return {
        "kinds": kinds,
        "worst": [{"model": model, "kernel": name, **row,
                   "wall_over_sim": row["wall_us"] / row["sim_us"]}
                  for (model, name), row in ranked[:worst]],
    }
