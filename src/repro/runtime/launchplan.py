"""Per-signature launch plans and their bounded LRU cache.

A shape-generic executable still has per-*signature* work: bind the input
shapes, solve the derived symbols, select every kernel's schedule variant,
evaluate the cost recipes and the memory plan.  None of it depends on the
tensor *data*, so the first call of a signature freezes all of it into a
:class:`LaunchPlan`; every later call with the same signature replays the
instruction stream against the frozen dims and charges the precomputed
cost — no binding, no resolution, no selection, no recipe evaluation.

The cache is keyed on the host program's param-order signature (a
batched plan's key adds a fixed ``@batch`` marker to its batched
signature), bounded, and LRU-evicting, with hit/miss/eviction
statistics.

A frozen plan is immutable, so engines that would freeze the same plan
may share it: :class:`SharedPlans` is that memo for one executable (a
fleet keeps one per model for its replicas).  Each engine still installs
the plan in its own cache, with its own statistics.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Hashable

from ..device.counters import RunStats
from ..obs.tracer import resolve_tracer

__all__ = ["LaunchPlan", "LaunchPlanCache", "SharedPlans",
           "format_signature"]


def format_signature(signature: tuple) -> str:
    """Compact human/JSON-friendly form of a param-order signature."""
    return ", ".join(
        f"{name}[{'x'.join(str(d) for d in shape)}]"
        for name, shape in signature)


def _key_label(key) -> str:
    """Human form of a plan-cache or compile-pool key for trace events:
    a signature, or a ``(name, signature)`` pair — a batched plan's
    marker, a pool job's model."""
    if isinstance(key, tuple) and len(key) == 2 \
            and isinstance(key[0], str):
        name, key = key
        return f"{name}:{_key_label(key)}"
    try:
        return format_signature(key)
    except (TypeError, ValueError):
        return str(key)


def _copy(stats: RunStats) -> RunStats:
    """``stats`` with its own copy of every ``details`` dict (the warm
    path's copy: cheaper than ``dataclasses.replace``)."""
    copy = object.__new__(RunStats)
    copy.__dict__.update(stats.__dict__)
    copy.details = {key: value.copy()
                    for key, value in stats.details.items()}
    return copy


class LaunchPlan:
    """Everything one signature's calls share, frozen after the first.

    ``stats`` is the signature's fully charged :class:`RunStats`.  It was
    accumulated kernel-by-kernel in instruction order, so replaying it
    wholesale reproduces the exact floating-point sums a per-call walk
    would have produced.  A batched plan's ``signature`` carries the
    leading batch dim, and its stats a ``details["batch"]`` block (the
    member count charged and the padded per-member signature), so every
    unbatched response can say which launch served it and how much
    padding it paid for.
    """

    __slots__ = ("signature", "dims", "stats", "memory_class", "tuned",
                 "launches", "__weakref__")

    def __init__(self, signature: tuple, dims: dict, stats: RunStats,
                 memory_class: dict | None = None, tuned: bool = False,
                 launches: tuple = ()) -> None:
        self.signature = signature
        #: resolved dim bindings (input symbols + every derived symbol).
        self.dims = dims
        self.stats = stats
        #: the *class-wide* memory snapshot
        #: (``SymbolicBufferPlan.snapshot()``): slot count, symbolic
        #: peak bounds and provenance expression — identical for every
        #: signature in the class, so replay carries the whole-class
        #: story without ever re-planning per shape.
        self.memory_class = memory_class
        #: True when the schedule picks came from the autotuner rather
        #: than the dispatch-stub heuristics.
        self.tuned = tuned
        #: launches charged per host instruction, in stream order (the
        #: traced record path stamps them on its kernel spans).
        self.launches = launches

    @classmethod
    def freeze(cls, signature: tuple, dims: dict, stats: RunStats,
               tuned: bool = False, launches=()) -> "LaunchPlan":
        """Capture a copy of a signature's fully charged ``stats``."""
        return cls(signature, dims, _copy(stats), tuned=tuned,
                   launches=tuple(launches))

    def make_stats(self) -> RunStats:
        """A fresh copy of the frozen :class:`RunStats`."""
        return _copy(self.stats)


class SharedPlans(weakref.WeakValueDictionary):
    """The frozen plans of one executable, shared by engines running it.

    Keys are the engine's freeze key (device, the options a freeze
    reads, signature, batch).  Values are weak: a plan lives only while
    some cache (or caller) holds it, so a plan every cache evicted is
    collectable and the memo never pins memory.
    """

    def __init__(self, executable) -> None:
        super().__init__()
        self.executable = executable


class LaunchPlanCache:
    """Bounded LRU of launch plans + hit/miss/eviction statistics.

    ``tracer`` (None = off) turns hits, misses and evictions into
    ``cache:plan:*`` trace events carrying the formatted key.
    """

    def __init__(self, capacity: int | None = 64, tracer=None) -> None:
        self._plans: OrderedDict[Hashable, LaunchPlan] = OrderedDict()
        self.capacity = capacity
        self.tracer = resolve_tracer(tracer)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> LaunchPlan | None:
        """The cached plan for ``key``, refreshing its recency; or None."""
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            if self.tracer.enabled:
                self.tracer.event("cache:plan:miss", key=_key_label(key))
            return None
        self.hits += 1
        if self.tracer.enabled:
            self.tracer.event("cache:plan:hit", key=_key_label(key))
        self._plans.move_to_end(key)
        return plan

    def peek(self, key: Hashable) -> LaunchPlan | None:
        """Like :meth:`get` but touching neither stats nor recency."""
        return self._plans.get(key)

    def put(self, key: Hashable, plan: LaunchPlan) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        if self.capacity is not None and len(self._plans) > self.capacity:
            evicted, _ = self._plans.popitem(last=False)
            self.evictions += 1
            if self.tracer.enabled:
                self.tracer.event("cache:plan:evict",
                                  key=_key_label(evicted))

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._plans

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._plans),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }
