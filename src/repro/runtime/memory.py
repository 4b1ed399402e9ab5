"""Buffer planning: liveness-based reuse of intermediate device memory.

BladeDISC's pipeline includes a buffer optimisation stage: intermediate
tensors whose live ranges do not overlap share device memory, which matters
doubly under dynamic shapes because the peak cannot be tuned per shape by
hand.  The plan is built once at compile time from the kernel order —
liveness intervals are *structural* — while actual byte sizes are evaluated
per call from the dim bindings, exactly like kernel cost recipes.

Every slot decision in the runtime goes through one primitive,
:func:`best_fit`: the plan's greedy colouring (start order, hinted
sizes), the per-shape re-planner E11 measures against (largest first,
one concrete binding) and the seed of the class repack (largest first,
a corner sweep of the declared ranges) differ only in visit order and
in the bindings sizes are priced at.

``BufferPlan.evaluate(dims)`` returns naive total vs reused peak bytes; the
engine surfaces both in ``RunStats.details``.  Each interval's byte size
is compiled once into a monomial (``Interval.size``), so evaluating a
plan is dict lookups and multiplications, not a walk over shape
templates.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..core.codegen.exprs import (monomial_value, serialize_shape,
                                  shape_monomial)
from ..ir.shapes import SymDim
from ..numerics.resolve import resolve_all_dims

__all__ = ["BufferPlan", "Interval", "best_fit", "plan_buffers",
           "repack_for_class", "replan_peak_for_shape",
           "scale_batched_memory"]


@dataclass
class Interval:
    """One intermediate value's lifetime over the kernel sequence."""

    node_id: int
    shape: tuple          # serialized symbolic shape
    dtype_size: int
    start: int            # kernel index that produces the value
    end: int              # last kernel index that reads it
    slot: int = -1        # assigned reuse slot
    #: the byte size compiled from ``shape`` and ``dtype_size``.
    size: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.size = shape_monomial(self.shape, self.dtype_size)

    def bytes_at(self, dims: dict) -> int:
        return monomial_value(self.size, dims)


class BufferPlan:
    """Compile-time liveness intervals + slot assignment."""

    def __init__(self, intervals: list, constant_bytes: int = 0,
                 size_hints: dict | None = None) -> None:
        self.intervals = intervals
        #: bytes of the executable's constant pool — resident for the
        #: whole program, shared across batch members, and charged into
        #: ``total_peak_bytes`` on *every* accounting path (record,
        #: prepare, batched prepare, legacy) so replayed plans agree
        #: with first-call stats.
        self.constant_bytes = int(constant_bytes)
        # Greedy interval-graph colouring in production order: visiting
        # by start index uses the minimum number of slots (interval
        # graphs are perfect).  Which *free* slot an interval reuses is
        # a pure heuristic — any choice is sound — so with ``size_hints``
        # (symbol name -> representative dim value, the paper's "likely
        # value") it best-fits by hinted byte size: big values share
        # slots with big values, which keeps the one class-wide plan's
        # peak close to what a per-shape re-planner achieves (the E11
        # gate).
        sizes = [(_hinted_bytes(iv, size_hints),) for iv in intervals]
        order = sorted(range(len(intervals)),
                       key=lambda i: intervals[i].start)
        assign, extents = best_fit(intervals, sizes, order)
        for interval, slot in zip(intervals, assign):
            interval.slot = slot
        self.num_slots = len(extents)

    def evaluate(self, dims: dict) -> dict:
        """Per-call memory statistics for concrete dim bindings."""
        naive = 0
        slot_size = [0] * self.num_slots
        for interval in self.intervals:
            size = interval.bytes_at(dims)
            naive += size
            slot_size[interval.slot] = max(slot_size[interval.slot], size)
        peak = sum(slot_size)
        return {
            "naive_bytes": naive,
            "peak_bytes": peak,
            "constant_bytes": self.constant_bytes,
            "total_peak_bytes": peak + self.constant_bytes,
            "reuse_factor": naive / peak if peak else 1.0,
            "slots": self.num_slots,
            "values": len(self.intervals),
        }

    def occupants(self) -> list:
        """Slot -> its intervals, ordered by ``(start, end)``."""
        by_slot: list[list] = [[] for _ in range(self.num_slots)]
        for interval in sorted(self.intervals,
                               key=lambda i: (i.start, i.end)):
            by_slot[interval.slot].append(interval)
        return by_slot


def _hinted_bytes(interval: Interval, size_hints: dict | None) -> int:
    if not size_hints:
        return 0
    try:
        return interval.bytes_at(size_hints)
    except Exception:
        return 0


def best_fit(intervals: list, sizes: list, order) -> tuple[list, list]:
    """The one slot assigner: best fit over live-range-disjoint slots.

    ``sizes[i]`` prices interval ``i`` at one or more bindings (one int
    per binding).  Intervals are placed in ``order``; each goes to the
    slot whose occupants' live ranges are all disjoint from its own and
    that costs least as ``(growth, waste, slot)`` summed over the
    bindings — the tightest slot that already fits, else the one
    needing the least growth, ties to the lowest slot — or to a new
    slot when no slot is disjoint.  Returns ``(assign, extents)``:
    interval index -> slot, and slot -> per-binding max occupant size.

    Visiting in start order this is exactly the classic greedy
    colouring: a slot's last occupant then has the largest ``end``, so
    "no overlap with any occupant" is the same test as "the slot is
    free before ``start``" (``free_at < start``).
    """
    assign = [-1] * len(intervals)
    ranges: list[list] = []   # slot -> occupants' (start, end), sorted
    extents: list[list] = []  # slot -> per-binding max occupant size
    for i in order:
        interval = intervals[i]
        size = sizes[i]
        best = None
        for slot, occupied in enumerate(ranges):
            if not _disjoint(occupied, interval):
                continue
            growth = waste = 0
            for need, have in zip(size, extents[slot]):
                if need > have:
                    growth += need - have
                else:
                    waste += have - need
            if best is None or (growth, waste, slot) < best:
                best = (growth, waste, slot)
        if best is None:
            assign[i] = len(ranges)
            ranges.append([(interval.start, interval.end)])
            extents.append(list(size))
            continue
        slot = best[2]
        assign[i] = slot
        bisect.insort(ranges[slot], (interval.start, interval.end))
        extents[slot] = [max(need, have)
                         for need, have in zip(size, extents[slot])]
    return assign, extents


def _disjoint(occupied: list, interval: Interval) -> bool:
    """True iff ``interval`` overlaps none of ``occupied``: pairwise
    disjoint ``(start, end)`` ranges sorted by start (hence by end too),
    so only the two neighbours of its insertion point can overlap it."""
    pos = bisect.bisect_right(occupied, (interval.start, math.inf))
    return ((pos == 0 or occupied[pos - 1][1] < interval.start)
            and (pos == len(occupied) or interval.end < occupied[pos][0]))


#: memory-dict fields that scale with the batch dim (per-member bytes).
_BATCH_SCALED = ("naive_bytes", "peak_bytes")


def scale_batched_memory(memory: dict, batch_size: int) -> dict:
    """Per-member memory stats -> one batched launch's stats.

    Only the per-member *byte* totals scale with the batch dim.  The
    slot/value counts and the reuse ratio describe the plan itself and
    are batch-invariant, and the constant pool is shared across members
    — scaling those (as the old inline dict comprehension did) reported
    a 4-member batch as having 4x the slots and 4x the reuse factor.
    """
    scaled = dict(memory)
    for key in _BATCH_SCALED:
        if key in scaled:
            scaled[key] = scaled[key] * batch_size
    if "total_peak_bytes" in scaled:
        scaled["total_peak_bytes"] = (
            scaled.get("peak_bytes", 0) + scaled.get("constant_bytes", 0))
    return scaled


def replan_peak_for_shape(intervals: list, dims: dict) -> dict:
    """Best-fit-decreasing *per-shape* re-planning — the E11 baseline.

    This is what a planner that knows the concrete sizes (and is free
    to re-run per call) can do: place values largest-first into the
    tightest free slot whose live ranges stay disjoint.  It exists to
    keep the symbolic one-plan honest — the E11 gate bounds the
    class-wide plan's peak against this per-shape peak across a shape
    sweep.  Returns ``{"peak_bytes", "slots"}``.
    """
    sizes = [(interval.bytes_at(dims),) for interval in intervals]
    order = sorted(range(len(intervals)),
                   key=lambda i: (-sizes[i][0], intervals[i].start,
                                  intervals[i].node_id))
    _assign, extents = best_fit(intervals, sizes, order)
    return {
        "peak_bytes": sum(extent[0] for extent in extents),
        "slots": len(extents),
    }


def _class_bindings(graph, assume_ranges: dict,
                    max_bindings: int = 64) -> list | None:
    """Deterministic lo/mid/hi corner sweep of the declared ranges,
    with every derived dim resolved.  ``None`` when resolution fails
    (some free symbol has no declared range) — callers then keep the
    incumbent slot assignment."""
    axes = sorted(assume_ranges.items())
    if not axes:
        return None
    points = [sorted({int(lo), int((lo + hi) // 2), int(hi)})
              for _, (lo, hi) in axes]
    if int(np.prod([len(p) for p in points], initial=1)) > max_bindings:
        points = [sorted({int(lo), int(hi)}) for _, (lo, hi) in axes]
    bindings = []
    for combo in itertools.product(*points):
        dims = {name: value
                for (name, _), value in zip(axes, combo)}
        try:
            resolve_all_dims(graph.nodes, dims)
        except Exception:
            return None
        bindings.append(dims)
    return bindings[:max_bindings]


def repack_for_class(buffer_plan: BufferPlan, graph,
                     assume_ranges: dict | None = None) -> bool:
    """Re-choose the slot assignment with *class* knowledge.

    The greedy colouring is optimal in slot count but prices sizes at
    one hinted binding.  With declared ranges we can do better: price
    every interval at a deterministic lo/mid/hi corner sweep of the
    class, seed a best-fit-decreasing assignment, then local-search it
    against the per-corner best-fit re-planning peaks (the E11
    baseline).  Which slot an interval lands in is a pure heuristic —
    any overlap-free choice is sound (and ``verify_sound`` / L602
    re-prove it) — so the only effect is a tighter class peak.

    Mutates ``interval.slot`` / ``num_slots`` in place and returns True
    iff a strictly better assignment was adopted.
    """
    intervals = buffer_plan.intervals
    if not intervals or not assume_ranges:
        return False
    bindings = _class_bindings(graph, assume_ranges)
    if not bindings:
        return False
    try:
        sizes = np.array([[iv.bytes_at(b) for b in bindings]
                          for iv in intervals], dtype=np.int64)
    except Exception:
        return False
    targets = np.array(
        [max(1, replan_peak_for_shape(intervals, b)["peak_bytes"])
         for b in bindings], dtype=np.int64)

    def overlap(a, b) -> bool:
        return a.start <= b.end and b.start <= a.end

    def objective(assign: list) -> float:
        peaks = np.zeros(len(bindings), dtype=np.int64)
        by_slot: dict[int, list] = {}
        for i, slot in enumerate(assign):
            by_slot.setdefault(slot, []).append(i)
        for members in by_slot.values():
            peaks += sizes[members].max(axis=0)
        return float((peaks / targets).max())

    # Seed: best-fit decreasing by worst-corner size.
    order = sorted(range(len(intervals)),
                   key=lambda i: (-int(sizes[i].max()),
                                  intervals[i].start,
                                  intervals[i].node_id))
    assign, _extents = best_fit(intervals, sizes.tolist(), order)

    # Refine: move one interval at a time while the worst corner ratio
    # strictly drops (bounded passes keep compile time deterministic).
    current = objective(assign)
    for _pass in range(4):
        improved = False
        for i in order:
            incumbent = assign[i]
            candidates = set(assign) | {max(assign) + 1}
            best = (current, incumbent)
            for slot in sorted(candidates):
                if slot == incumbent:
                    continue
                if any(overlap(intervals[i], intervals[j])
                       for j, s in enumerate(assign)
                       if s == slot and j != i):
                    continue
                assign[i] = slot
                value = objective(assign)
                if value < best[0] - 1e-12:
                    best = (value, slot)
                assign[i] = incumbent
            if best[1] != incumbent:
                assign[i] = best[1]
                current = best[0]
                improved = True
        if not improved:
            break

    incumbent_assign = [iv.slot for iv in intervals]
    if current >= objective(incumbent_assign) - 1e-12:
        return False
    # Adopt: renumber densely in production order.
    remap: dict[int, int] = {}
    for i in sorted(range(len(intervals)),
                    key=lambda i: (intervals[i].start,
                                   intervals[i].node_id)):
        remap.setdefault(assign[i], len(remap))
    for i, interval in enumerate(intervals):
        interval.slot = remap[assign[i]]
    buffer_plan.num_slots = len(remap)
    return True


def plan_buffers(kernels: list, graph, constant_bytes: int = 0,
                 assume_ranges: dict | None = None) -> BufferPlan:
    """Build the liveness intervals from an ordered kernel list, then
    assign their slots.

    Only *intermediates* are planned: values produced by one kernel and
    consumed by later ones.  Graph outputs live to the end of the program
    (they are handed to the caller); parameters and constants are not
    device-allocated per call.  With ``assume_ranges`` (the deployment
    bounds, symbol -> ``(lo, hi)``) the greedy assignment is re-packed
    with class knowledge (:func:`repack_for_class`) so one frozen plan
    stays within a whisker of a per-shape re-planner.
    """
    output_ids = {node.id for node in graph.outputs}
    produced_at: dict[int, tuple] = {}   # node id -> (kernel idx, node)
    last_use: dict[int, int] = {}
    size_hints: dict[str, int] = {}
    for index, kernel in enumerate(kernels):
        for node in kernel.input_nodes:
            if node.id in produced_at:
                last_use[node.id] = index
        for node in kernel.output_nodes:
            produced_at[node.id] = (index, node)
            for dim in node.shape:
                if isinstance(dim, SymDim):
                    size_hints.setdefault(dim.name, dim.hint or 8)

    end_of_program = len(kernels)
    intervals = []
    for node_id, (start, node) in produced_at.items():
        end = end_of_program if node_id in output_ids else \
            last_use.get(node_id, start)
        intervals.append(Interval(
            node_id=node_id,
            shape=serialize_shape(node.shape),
            dtype_size=node.dtype.size,
            start=start,
            end=end,
        ))
    plan = BufferPlan(intervals, constant_bytes=constant_bytes,
                      size_hints=size_hints)
    repack_for_class(plan, graph, assume_ranges)
    return plan
