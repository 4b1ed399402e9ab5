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
signature), bounded, and LRU-evicting.  It also counts the distinct
signatures called, next to its hit/miss/eviction statistics.

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

__all__ = ["BatchLaunchPlan", "LaunchPlan", "LaunchPlanCache",
           "SharedPlans", "format_signature"]


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


class LaunchPlan:
    """Everything one signature's calls share, frozen after the first."""

    __slots__ = ("signature", "dims", "device_time_us", "host_time_us",
                 "kernels_launched", "bytes_read", "bytes_written",
                 "flops", "memory", "memory_class", "schedules", "tuned",
                 "launches", "__weakref__")

    def __init__(self, signature: tuple, dims: dict,
                 device_time_us: float, host_time_us: float,
                 kernels_launched: int, bytes_read: int,
                 bytes_written: int, flops: float,
                 memory: dict | None,
                 schedules: dict | None = None,
                 tuned: bool = False, launches: tuple = ()) -> None:
        self.signature = signature
        #: resolved dim bindings (input symbols + every derived symbol).
        self.dims = dims
        self.device_time_us = device_time_us
        self.host_time_us = host_time_us
        self.kernels_launched = kernels_launched
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written
        self.flops = flops
        #: frozen ``BufferPlan.evaluate`` result (None without a plan).
        self.memory = memory
        #: the *class-wide* memory snapshot
        #: (``SymbolicBufferPlan.snapshot()``): slot count, symbolic
        #: peak bounds and provenance expression — identical for every
        #: signature in the class, so replay carries the whole-class
        #: story without ever re-planning per shape.  The engine sets it
        #: when it freezes the plan.
        self.memory_class = None
        #: kernel name -> chosen schedule name (None when the program
        #: has no schedulable kernels).
        self.schedules = schedules
        #: True when the picks came from the schedule autotuner rather
        #: than the dispatch-stub heuristics.
        self.tuned = tuned
        #: launches charged per host instruction, in stream order (the
        #: traced record path stamps them on its kernel spans).
        self.launches = launches

    @classmethod
    def freeze(cls, signature: tuple, dims: dict, stats: RunStats,
               tuned: bool = False, launches=()) -> "LaunchPlan":
        """Capture a signature's fully-charged ``RunStats`` as a plan.

        The stats were accumulated kernel-by-kernel in instruction
        order, so replaying them wholesale reproduces the exact
        floating-point sums a per-call walk would have produced.
        """
        memory = stats.details.get("memory")
        schedules = stats.details.get("schedules")
        return cls(
            signature=signature,
            dims=dims,
            device_time_us=stats.device_time_us,
            host_time_us=stats.host_time_us,
            kernels_launched=stats.kernels_launched,
            bytes_read=stats.bytes_read,
            bytes_written=stats.bytes_written,
            flops=stats.flops,
            memory=dict(memory) if memory is not None else None,
            schedules=dict(schedules) if schedules is not None else None,
            tuned=tuned,
            launches=tuple(launches),
        )

    def make_stats(self) -> RunStats:
        """A fresh :class:`RunStats` charging this plan's frozen cost."""
        stats = RunStats(
            device_time_us=self.device_time_us,
            host_time_us=self.host_time_us,
            kernels_launched=self.kernels_launched,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            flops=self.flops,
            cache_hit=True,
        )
        if self.memory is not None:
            stats.details["memory"] = dict(self.memory)
        if self.schedules is not None:
            stats.details["schedules"] = dict(self.schedules)
        return stats


class BatchLaunchPlan(LaunchPlan):
    """A frozen plan for one *batched* launch of several bucket members.

    ``signature`` is the batched signature (leading batch dim on every
    parameter); ``member_signature`` is the padded per-member signature
    the batcher lowered, and ``batch_size`` the (rounded) member count
    the cost was charged for.  The stats it mints carry a ``batch``
    detail block so every unbatched response can say which launch served
    it and how much padding it paid for.
    """

    __slots__ = ("batch_size", "member_signature")

    @classmethod
    def freeze_batched(cls, signature: tuple, dims: dict, stats: RunStats,
                       batch_size: int, member_signature: tuple,
                       launches=()) -> "BatchLaunchPlan":
        plan = cls.freeze(signature, dims, stats, launches=launches)
        plan.batch_size = batch_size
        plan.member_signature = member_signature
        return plan

    def make_stats(self) -> RunStats:
        stats = super().make_stats()
        stats.details["batch"] = {
            "size": self.batch_size,
            "padded_signature": format_signature(self.member_signature),
        }
        return stats


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
    """Bounded LRU of launch plans + signature statistics.

    ``tracer`` (None = off) turns hits, misses and evictions into
    ``cache:plan:*`` trace events carrying the formatted key.
    """

    def __init__(self, capacity: int | None = 64, tracer=None) -> None:
        self._plans: OrderedDict[Hashable, LaunchPlan] = OrderedDict()
        #: every signature noted so far.
        self._seen: set = set()
        self.capacity = capacity
        self.tracer = resolve_tracer(tracer)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- signature accounting ---------------------------------------------

    def note(self, signature: Hashable) -> None:
        """Record one call of ``signature``."""
        self._seen.add(signature)

    # -- plan storage ------------------------------------------------------

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
            "signatures_seen": len(self._seen),
        }
