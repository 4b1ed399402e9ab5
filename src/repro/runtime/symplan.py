"""Symbolic buffer planning: one reuse plan per signature class.

The concrete :class:`~repro.runtime.memory.BufferPlan` is already
shape-generic in *structure* — liveness intervals and slot assignment
come from the kernel order alone — but every byte number it reports is
evaluated per concrete binding, so the memory story was the last stage
in the warm path still reasoned about one shape at a time.  This module
lifts it to the *signature class*, the BladeDISC++ way:

- every reuse slot gets a **symbolic extent**: the interval join of its
  occupants' byte-size facts (``IntervalMap.size_fact``), i.e. the
  max-over-class the slot can ever need;
- the **class peak** is the interval sum of the slot extents, carried
  as an :class:`~repro.core.symbolic.intervals.IntervalFact` whose
  provenance chain names every constraint-store fact the bound rests
  on;
- aliasing is proven safe against ``derive_intervals`` facts instead of
  concrete sizes (:meth:`SymbolicBufferPlan.verify_sound`, the same
  judgement the L602 analyzer makes, implemented independently so the
  fuzz oracle can cross-check the two);
- :class:`MemoryBudget` turns the proven upper bound into admission
  arithmetic: the largest batch size and replica count whose class-wide
  peak provably fits a device capacity.  The batching engine and the
  fleet consume it (`BatchingOptions.memory_budget`,
  ``FleetOptions.memory_budget``).

One plan serves every shape in the class: ``LaunchPlan.memory_class``
carries the frozen snapshot, so replay never re-derives the class-wide
story, and per-call numbers still come from the *same* slot assignment
the concrete plan uses — ``evaluate`` delegates, which is what makes
the engines' per-shape stats bit-identical with and without the
symbolic layer (property-tested in ``tests/runtime``).

``measure_peak_bytes`` is the ground-truth oracle: it runs the host
program through the engine's own instruction loop with a hook tracking
the live bytes the planned values actually hold, so
``peak_at(dims) >= measured`` is checkable for any binding the
property/fuzz suites sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.codegen.support import _shape
from ..core.symbolic.intervals import (Interval, IntervalFact, IntervalMap,
                                       derive_intervals)

__all__ = ["MemoryBudget", "SlotExtent", "SymbolicBufferPlan",
           "measure_peak_bytes", "plan_symbolic", "repack_for_class"]


@dataclass(frozen=True)
class SlotExtent:
    """One reuse slot's class-wide byte requirement.

    ``exprs`` are the distinct ``(serialized_shape, dtype_size)`` pairs
    the slot ever holds — the symbolic expression the per-call maximum
    is computed from; ``fact`` is their interval join with merged
    provenance.
    """

    slot: int
    occupants: tuple        # node ids, production order
    exprs: tuple            # distinct (serialized shape, dtype_size)
    fact: IntervalFact      # join over occupant size facts

    def bytes_at(self, dims: dict) -> int:
        """The slot's concrete requirement at one binding: the max of
        its occupant size expressions (identical to what the concrete
        plan charges the slot)."""
        best = 0
        for shape, dtype_size in self.exprs:
            size = int(np.prod(_shape(shape, dims), initial=1)) \
                * dtype_size
            if size > best:
                best = size
        return best

    def describe(self) -> str:
        shapes = ", ".join(
            f"{'x'.join(str(d) for d in shape)}*{dtype_size}"
            for shape, dtype_size in self.exprs)
        return f"slot {self.slot}: max({shapes}) in {self.fact.interval}"


class SymbolicBufferPlan:
    """One reuse plan, valid for every shape in the signature class.

    Wraps the concrete :class:`BufferPlan` (same intervals, same slot
    assignment — per-call numbers delegate, so nothing the engines
    report changes) and adds the class-wide layer: symbolic slot
    extents, an interval-valued peak with a provenance chain, and the
    liveness/aliasing proof over interval facts.
    """

    def __init__(self, buffer_plan, imap: IntervalMap,
                 constant_bytes: int = 0) -> None:
        self.base = buffer_plan
        self.imap = imap
        #: shared constant pool bytes (one copy per executable, never
        #: scaled by batch size).
        self.constant_bytes = int(constant_bytes)
        self.slots: list[SlotExtent] = self._join_slots()
        self.peak_fact = self._sum_fact(
            [extent.fact for extent in self.slots],
            head="class peak = sum of slot extents")
        self.naive_fact = self._sum_fact(
            [imap.size_fact(i.shape, i.dtype_size)
             for i in buffer_plan.intervals],
            head="class naive = sum of all values")

    # -- construction -------------------------------------------------------

    def _join_slots(self) -> list:
        by_slot: dict[int, list] = {}
        for interval in self.base.intervals:
            by_slot.setdefault(interval.slot, []).append(interval)
        extents = []
        for slot in range(self.base.num_slots):
            occupants = sorted(by_slot.get(slot, []),
                               key=lambda i: (i.start, i.end))
            exprs: list = []
            joined: IntervalFact | None = None
            for occ in occupants:
                expr = (tuple(occ.shape), occ.dtype_size)
                if expr not in exprs:
                    exprs.append(expr)
                fact = self.imap.size_fact(occ.shape, occ.dtype_size)
                if joined is None:
                    joined = fact
                else:
                    joined = IntervalFact(
                        joined.interval.join(fact.interval),
                        joined.chain + fact.chain)
            if joined is None:
                joined = IntervalFact(Interval.point(0),
                                      ("empty slot",))
            extents.append(SlotExtent(
                slot=slot,
                occupants=tuple(o.node_id for o in occupants),
                exprs=tuple(exprs),
                fact=IntervalFact(
                    joined.interval,
                    (f"slot {slot} extent in {joined.interval} "
                     f"(join of {len(occupants)} occupants)",)
                    + joined.chain)))
        return extents

    @staticmethod
    def _sum_fact(facts: list, head: str) -> IntervalFact:
        total = Interval.point(0)
        chain: list = [head]
        for fact in facts:
            total = total.add(fact.interval)
            chain.extend(fact.chain)
        return IntervalFact(total, (f"{head}: {total}",) + tuple(chain[1:]))

    # -- per-call numbers (delegation = bit-identity with the legacy plan) --

    @property
    def num_slots(self) -> int:
        return self.base.num_slots

    @property
    def intervals(self) -> list:
        return self.base.intervals

    def evaluate(self, dims: dict) -> dict:
        """Exactly :meth:`BufferPlan.evaluate` — the symbolic layer
        never changes what a concrete call is charged."""
        return self.base.evaluate(dims)

    def peak_at(self, dims: dict) -> int:
        """The class plan's peak at one binding, from the frozen slot
        expressions (no re-planning).  Equal to
        ``evaluate(dims)["peak_bytes"]`` by construction — the property
        suite pins that — and bounded by :attr:`peak_fact` for every
        in-class binding."""
        return sum(extent.bytes_at(dims) for extent in self.slots)

    # -- class-wide story ----------------------------------------------------

    @property
    def proven(self) -> bool:
        """True when the class peak has a finite proven upper bound."""
        return self.peak_fact.interval.hi is not None

    def peak_hi_bytes(self) -> int | None:
        """Proven class-wide peak upper bound (None = unbounded)."""
        return self.peak_fact.interval.hi

    def footprint_hi_bytes(self, batch_size: int = 1) -> int | None:
        """Proven device bytes one resident copy needs: the class peak
        (scaled linearly by the batch dim, matching the batched cost
        model) plus the shared constant pool."""
        hi = self.peak_hi_bytes()
        if hi is None:
            return None
        return hi * int(batch_size) + self.constant_bytes

    def peak_expression(self) -> str:
        """The symbolic peak as a readable expression over slot maxima."""
        return " + ".join(
            f"max({', '.join('x'.join(str(d) for d in shape) + f'*{ds}' for shape, ds in extent.exprs)})"
            for extent in self.slots) or "0"

    def provenance(self) -> tuple:
        """The blame chain the peak bound rests on, seed-first."""
        return self.peak_fact.chain

    def snapshot(self) -> dict:
        """The frozen class-wide memory story a launch plan carries.

        Plain data (ints/strings), cheap to copy, identical for every
        signature in the class — replay attaches it without touching
        the planner again.
        """
        interval = self.peak_fact.interval
        return {
            "slots": self.base.num_slots,
            "values": len(self.base.intervals),
            "peak_lo_bytes": interval.lo,
            "peak_hi_bytes": interval.hi,
            "constant_bytes": self.constant_bytes,
            "proven": self.proven,
            "expression": self.peak_expression(),
        }

    # -- the aliasing proof ---------------------------------------------------

    def verify_sound(self) -> list:
        """Prove every slot reuse safe over the whole class.

        Two occupants of one slot must have disjoint live ranges; an
        overlap is tolerable only when at least one occupant is provably
        zero-sized for *every* shape in the class (interval facts, not
        concrete sizes, make that call — the same judgement L602 makes,
        implemented independently so the fuzz oracle can cross-check).
        Returns human-readable violations; empty means proven sound.
        """
        violations = []
        by_slot: dict[int, list] = {}
        for interval in self.base.intervals:
            by_slot.setdefault(interval.slot, []).append(interval)
        for slot, occupants in sorted(by_slot.items()):
            ordered = sorted(occupants, key=lambda i: (i.start, i.end))
            for earlier, later in zip(ordered, ordered[1:]):
                if earlier.end < later.start:
                    continue
                size_a = self.imap.size_fact(earlier.shape,
                                             earlier.dtype_size)
                size_b = self.imap.size_fact(later.shape,
                                             later.dtype_size)
                if not (size_a.interval.can_be_positive()
                        and size_b.interval.can_be_positive()):
                    continue
                violations.append(
                    f"slot {slot}: node {earlier.node_id} "
                    f"(live {earlier.start}..{earlier.end}, "
                    f"{size_a.describe()}) aliases node {later.node_id} "
                    f"(live {later.start}..{later.end}, "
                    f"{size_b.describe()})")
        return violations


def _class_bindings(graph, assume_ranges: dict,
                    max_bindings: int = 64) -> list | None:
    """Deterministic lo/mid/hi corner sweep of the declared ranges,
    with every derived dim resolved.  ``None`` when resolution fails
    (some free symbol has no declared range) — callers then keep the
    incumbent slot assignment."""
    import itertools

    from ..numerics.resolve import resolve_all_dims

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


def repack_for_class(buffer_plan, graph,
                     assume_ranges: dict | None = None) -> bool:
    """Re-choose the slot assignment with *class* knowledge.

    The concrete planner colours intervals in production order — optimal
    in slot count, blind to byte sizes.  With declared ranges we can do
    better: price every interval at a deterministic lo/mid/hi corner
    sweep of the class, seed a best-fit-decreasing assignment, then
    local-search it against the per-corner best-fit re-planning peaks
    (the E11 baseline).  Which slot an interval lands in is a pure
    heuristic — any overlap-free choice is sound (and ``verify_sound`` /
    L602 re-prove it) — so the only effect is a tighter class peak.

    Mutates ``interval.slot`` / ``num_slots`` in place and returns True
    iff a strictly better assignment was adopted.  Runs before the
    symbolic extents are frozen and before host lowering, so every
    downstream consumer sees one consistent story.
    """
    from .memory import replan_peak_for_shape

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

    # Seed: best-fit decreasing by worst-corner size, least growth.
    order = sorted(range(len(intervals)),
                   key=lambda i: (-int(sizes[i].max()),
                                  intervals[i].start,
                                  intervals[i].node_id))
    assign = [-1] * len(intervals)
    slot_members: list[list] = []
    slot_size: list[np.ndarray] = []
    for i in order:
        best = None
        for slot, members in enumerate(slot_members):
            if any(overlap(intervals[i], intervals[j]) for j in members):
                continue
            growth = int(np.maximum(sizes[i] - slot_size[slot], 0).sum())
            waste = int(np.maximum(slot_size[slot] - sizes[i], 0).sum())
            cost = (growth, waste, slot)
            if best is None or cost < best:
                best = cost
        if best is None:
            assign[i] = len(slot_members)
            slot_members.append([i])
            slot_size.append(sizes[i].copy())
        else:
            slot = best[2]
            assign[i] = slot
            slot_members[slot].append(i)
            slot_size[slot] = np.maximum(slot_size[slot], sizes[i])

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


def plan_symbolic(buffer_plan, graph, assume_ranges: dict | None = None,
                  constant_bytes: int = 0,
                  imap: IntervalMap | None = None) -> SymbolicBufferPlan:
    """Lift a concrete buffer plan to its signature class.

    ``assume_ranges`` are the deployment bounds (symbol -> ``(lo, hi)``)
    that make the peak *finitely* provable; without them the plan still
    builds, with an unbounded (honest) upper end.  When ranges are
    declared the slot assignment is first re-packed with class
    knowledge (:func:`repack_for_class`) so the one frozen plan stays
    within a whisker of a per-shape re-planner.
    """
    repack_for_class(buffer_plan, graph, assume_ranges)
    if imap is None:
        imap = derive_intervals(graph, assume_ranges=assume_ranges)
    return SymbolicBufferPlan(buffer_plan, imap,
                              constant_bytes=constant_bytes)


def measure_peak_bytes(executable, inputs) -> dict:
    """Ground-truth memory oracle: execute the host program and track
    the bytes the *planned* values actually hold live, step by step.

    Returns ``{"measured_peak_bytes", "outputs"}`` — the outputs let
    callers assert bit-identity against an engine run in the same
    breath.  Any sound class plan must satisfy
    ``peak_at(dims) >= measured_peak_bytes`` at every in-class binding.
    """
    program = executable.host_program
    hook = _LiveBytes(set(program.planned_slots))
    outputs = program.execute(inputs, program.bind(inputs), hook)
    return {"measured_peak_bytes": hook.peak, "outputs": outputs}


class _LiveBytes:
    """Execute hook: bytes held live by ``planned`` slots, and the peak.

    A value counts from the instruction that writes it until the one
    that releases it; the peak is taken after each instruction's
    outputs land and before its dead values are dropped.
    """

    __slots__ = ("planned", "live", "peak")

    def __init__(self, planned: set) -> None:
        self.planned = planned
        self.live = 0
        self.peak = 0

    def before(self, instr) -> None:
        pass

    def after(self, instr, env) -> None:
        planned = self.planned
        for slot in instr.out_slots:
            if slot in planned:
                self.live += int(np.asarray(env[slot]).nbytes)
        self.peak = max(self.peak, self.live)
        for slot in instr.release:
            if slot in planned and env[slot] is not None:
                self.live -= int(np.asarray(env[slot]).nbytes)


@dataclass(frozen=True)
class MemoryBudget:
    """A device memory budget, enforced through *proven* peaks only.

    The planner's class-wide upper bound is the currency: a batch size
    or replica count is admitted iff its footprint provably fits, so
    admission never depends on which shape in the class shows up.  An
    unbounded peak (no ``assume_ranges``) yields ``None`` everywhere —
    "cannot prove" is an explicit answer, never silently treated as
    "fits".
    """

    capacity_bytes: int
    #: fraction held back for allocator slack / runtime overheads.
    reserve_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if not 0.0 <= self.reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")

    @property
    def usable_bytes(self) -> int:
        return int(self.capacity_bytes * (1.0 - self.reserve_fraction))

    def fits(self, footprint_bytes: int | None) -> bool | None:
        """True/False when provable, None when the bound is unknown."""
        if footprint_bytes is None:
            return None
        return footprint_bytes <= self.usable_bytes

    def max_batch_size(self, plan: SymbolicBufferPlan,
                       limit: int | None = None) -> int | None:
        """Largest batch whose class-wide peak provably fits.

        Intermediates scale linearly with the batch dim (the batched
        cost model's rule); the constant pool is shared across members.
        Returns ``None`` when the peak has no finite proven bound —
        callers must then fall back to their configured limit, not
        assume safety.  ``0`` means even one member cannot be proven to
        fit.
        """
        per_member = plan.peak_hi_bytes()
        if per_member is None:
            return None
        available = self.usable_bytes - plan.constant_bytes
        if available < 0:
            return 0
        if per_member == 0:
            cap = limit if limit is not None else available or 1
        else:
            cap = available // per_member
        if limit is not None:
            cap = min(cap, limit)
        return int(cap)

    def max_replicas(self, footprint_bytes: int | None,
                     limit: int | None = None) -> int | None:
        """Largest replica count whose summed footprints provably fit
        one shared capacity pool (None = unprovable)."""
        if footprint_bytes is None:
            return None
        if footprint_bytes <= 0:
            return limit
        cap = self.usable_bytes // footprint_bytes
        if limit is not None:
            cap = min(cap, limit)
        return int(cap)

    def bucket_caps(self, plan: SymbolicBufferPlan,
                    bucketer) -> list:
        """Per bucketing slot, the proven class maximum — the pad
        ceiling never needs to exceed it, so once a budget is declared
        the bucketer stops padding past what the class can prove.

        ``None`` entries leave that slot's ceiling schedule untouched.
        """
        from ..ir.shapes import SymDim

        caps: list = []
        for symbols in bucketer.class_symbols():
            cap: int | None = None
            interval = Interval.top()
            for name in sorted(symbols):
                fact = self.imap_fact(plan, name, SymDim)
                interval = interval.meet(fact.proven_interval())
            if interval.hi is not None and not interval.is_empty:
                cap = int(interval.hi)
            caps.append(cap)
        return caps

    @staticmethod
    def imap_fact(plan: SymbolicBufferPlan, name: str, sym_cls):
        return plan.imap.fact_of(sym_cls(name))
