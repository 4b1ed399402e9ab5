"""Symbolic buffer planning: one reuse plan per signature class.

The concrete :class:`~repro.runtime.memory.BufferPlan` is already
shape-generic in *structure* — liveness intervals and slot assignment
are chosen once, at compile time, by :mod:`repro.runtime.memory` (the
only module that assigns slots) — but every byte number it reports is
evaluated per concrete binding.  This module lifts the finished plan to
the *signature class*, the BladeDISC++ way, without changing a slot:

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

The pipeline builds both plans for every executable.  One plan serves
every shape in the class: ``LaunchPlan.memory_class`` carries the frozen
snapshot, so replay never re-derives the class-wide story, and per-call
numbers come from the concrete plan's ``evaluate`` over the *same* slot
assignment — ``peak_at`` prices the frozen slot expressions and equals
it at every binding (property-tested in ``tests/runtime``).

``measure_peak_bytes`` is the ground-truth oracle: it runs the host
program through the engine's own instruction loop with a hook tracking
the live bytes the planned values actually hold, so
``peak_at(dims) >= measured`` is checkable for any binding the
property/fuzz suites sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.codegen.exprs import monomial_value, shape_monomial
from ..core.symbolic.intervals import (Interval, IntervalFact, IntervalMap,
                                       derive_intervals)

__all__ = ["MemoryBudget", "SlotExtent", "SymbolicBufferPlan",
           "measure_peak_bytes", "plan_symbolic"]


@dataclass(frozen=True)
class SlotExtent:
    """One reuse slot's class-wide byte requirement.

    ``exprs`` are the distinct ``(serialized_shape, dtype_size)`` pairs
    the slot ever holds — the symbolic expression the per-call maximum
    is computed from, compiled into the byte monomials ``sizes``;
    ``fact`` is their interval join with merged provenance.
    """

    slot: int
    occupants: tuple        # node ids, production order
    exprs: tuple            # distinct (serialized shape, dtype_size)
    fact: IntervalFact      # join over occupant size facts
    sizes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(
            shape_monomial(shape, dtype_size)
            for shape, dtype_size in self.exprs))

    def bytes_at(self, dims: dict) -> int:
        """The slot's concrete requirement at one binding: the max of
        its occupant size expressions (identical to what the concrete
        plan charges the slot)."""
        return max((monomial_value(size, dims) for size in self.sizes),
                   default=0)

    def expression(self) -> str:
        """The slot's symbolic size, ``max(<shape>*<dtype_size>, ...)``."""
        shapes = ", ".join(
            f"{'x'.join(str(d) for d in shape)}*{dtype_size}"
            for shape, dtype_size in self.exprs)
        return f"max({shapes})"

    def describe(self) -> str:
        return f"slot {self.slot}: {self.expression()} in {self.fact.interval}"


class SymbolicBufferPlan:
    """One reuse plan, valid for every shape in the signature class.

    Wraps the concrete :class:`BufferPlan` (same intervals, same slot
    assignment; per-call stats stay the concrete plan's ``evaluate``)
    and adds the class-wide layer: symbolic slot extents, an
    interval-valued peak with a provenance chain, and the
    liveness/aliasing proof over interval facts.
    """

    def __init__(self, buffer_plan, imap: IntervalMap) -> None:
        self.base = buffer_plan
        self.imap = imap
        #: shared constant pool bytes (one copy per executable, never
        #: scaled by batch size).
        self.constant_bytes = buffer_plan.constant_bytes
        self.slots: list[SlotExtent] = self._join_slots()
        total = Interval.point(0)
        chain: list = []
        for extent in self.slots:
            total = total.add(extent.fact.interval)
            chain.extend(extent.fact.chain)
        self.peak_fact = IntervalFact(
            total, (f"class peak = sum of slot extents: {total}",)
            + tuple(chain))

    # -- construction -------------------------------------------------------

    def _join_slots(self) -> list:
        extents = []
        for slot, occupants in enumerate(self.base.occupants()):
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

    # -- per-call numbers -----------------------------------------------------

    def peak_at(self, dims: dict) -> int:
        """The class plan's peak at one binding, from the frozen slot
        expressions (no re-planning).  Equal to the concrete plan's
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
            extent.expression() for extent in self.slots) or "0"

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
        for slot, ordered in enumerate(self.base.occupants()):
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


def plan_symbolic(buffer_plan, graph,
                  assume_ranges: dict | None = None) -> SymbolicBufferPlan:
    """Lift a concrete buffer plan to its signature class.

    ``assume_ranges`` are the deployment bounds (symbol -> ``(lo, hi)``)
    that make the peak *finitely* provable; without them the plan still
    builds, with an unbounded (honest) upper end.  A pure lift: the
    slot assignment is the buffer plan's own (chosen by
    :func:`~repro.runtime.memory.plan_buffers`) and is never changed.
    """
    return SymbolicBufferPlan(
        buffer_plan, derive_intervals(graph, assume_ranges=assume_ranges))


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
                fact = plan.imap.fact_of(SymDim(name))
                interval = interval.meet(fact.proven_interval())
            if interval.hi is not None and not interval.is_empty:
                cap = int(interval.hi)
            caps.append(cap)
        return caps
