"""Whole-signature-class soundness analyzers (the L6xx family).

Every artifact the runtime freezes per signature — launch plans, memory
plans, batch plans — must hold for *every* shape in the signature class.
These analyzers prove (or refute) that with the interval abstract domain
from :mod:`repro.core.symbolic.intervals`:

- **L601** — a live dim's interval is empty: the recorded constraints
  (class constants, ``assume_range`` facts, derived equations) admit no
  value at all;
- **L602** — a memory-plan slot reuse is unsound for some shape in the
  class: two overlapping live ranges share a slot and both occupants'
  interval-derived byte sizes can be positive simultaneously;
- **L603** — launch-plan replay is unsound across the class: a symbol
  the program consumes is not derivable from the call signature, so the
  frozen plan replays a value that was only valid at the recorded dims;
- **L604** — a batch-bucket pad ceiling is not an upper bound of every
  member's interval (padding would *truncate*), or the padding waste is
  provably above the configured threshold for every shape in the class;
- **L605** — a possibly zero/negative extent reaches an operation that
  divides or reshapes by it.

Each diagnostic carries the witness interval and the constraint chain
that produced it (blame-style provenance, mirroring ``BlameRecorder``'s
per-pass attribution but at the granularity of individual shape facts).
"""

from __future__ import annotations

from ..core.symbolic.intervals import (Interval, IntervalMap,
                                       derive_intervals)
from .diagnostics import DiagnosticSink

__all__ = [
    "check_intervals",
    "check_memory_symbolic",
    "check_plan_coverage",
    "check_bucket_padding",
    "audit_stock_bucketer",
]

#: L604 fires when padding waste provably exceeds this fraction for
#: every shape in the class.  The stock pow2 ceiling's worst case is
#: just under 0.5 (value = one past a power of two), so the default
#: threshold keeps a correct bucketer silent.
WASTE_THRESHOLD = 0.5

#: Exhaustive-audit cap for L604: intervals with at most this many
#: members are checked value-by-value; wider or unbounded intervals are
#: probed at the points where pow2-style ceilings change regime.
_EXHAUSTIVE_LIMIT = 4096


def check_intervals(graph, sink: DiagnosticSink | None = None, *,
                    imap: IntervalMap | None = None,
                    assume_ranges=None) -> IntervalMap:
    """Derive (or reuse) the interval map and report L601/L605.

    Returns the map so executable-level checks can share one derivation.
    """
    sink = sink if sink is not None else DiagnosticSink()
    if imap is None:
        imap = derive_intervals(graph, assume_ranges=assume_ranges)

    reported: set[str] = set()
    for name, node, fact in imap.contradictions:
        if name in reported:
            continue
        reported.add(name)
        where = f" at {node.short()}" if node is not None else ""
        sink.emit(
            "L601",
            f"dim {name} has an empty interval{where}: the recorded "
            f"constraints admit no value ({fact.describe()})",
            node=node,
            fix_hint="one of the chained facts is wrong; drop or widen "
                     "the contradicting assume_range / constant")
    for name, fact in imap.empty_symbols():
        if name in reported:
            continue
        reported.add(name)
        sink.emit(
            "L601",
            f"dim {name} has an empty interval: the recorded "
            f"constraints admit no value ({fact.describe()})",
            fix_hint="one of the chained facts is wrong; drop or widen "
                     "the contradicting assume_range / constant")

    for hazard in imap.hazards:
        sink.emit(
            "L605",
            f"{hazard.message}; witness {hazard.fact.describe()}",
            node=hazard.node,
            fix_hint="prove the extent positive with an assume_range "
                     "fact, or guard the op against the empty case")
    return imap


def check_memory_symbolic(plan, imap: IntervalMap,
                          sink: DiagnosticSink | None = None
                          ) -> DiagnosticSink:
    """L602: slot reuse that aliases live data for some class member.

    The structural analyzer (L301) flags any overlapping same-slot live
    ranges; this check upgrades the finding from "the ranges overlap" to
    "and here is a shape regime where both occupants hold live bytes":
    both interval-derived byte sizes can be positive simultaneously.  An
    overlap where one occupant is provably zero-sized for every shape in
    the class is structural sloppiness, not data corruption — it stays
    L301-only.
    """
    sink = sink if sink is not None else DiagnosticSink()
    if plan is None:
        return sink

    by_slot: dict[int, list] = {}
    for interval in plan.intervals:
        by_slot.setdefault(interval.slot, []).append(interval)
    for slot, intervals in sorted(by_slot.items()):
        ordered = sorted(intervals, key=lambda i: (i.start, i.end))
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.end < later.start:
                continue
            size_a = imap.size_fact(earlier.shape, earlier.dtype_size)
            size_b = imap.size_fact(later.shape, later.dtype_size)
            if not (size_a.interval.can_be_positive()
                    and size_b.interval.can_be_positive()):
                continue
            quantifier = "every shape" \
                if not size_a.interval.can_be_nonpositive() \
                and not size_b.interval.can_be_nonpositive() \
                else "some shape"
            sink.emit(
                "L602",
                f"slot {slot} reuse is unsound for {quantifier} in the "
                f"signature class: node {earlier.node_id} "
                f"(live {earlier.start}..{earlier.end}, "
                f"{size_a.describe()} bytes) aliases node "
                f"{later.node_id} (live {later.start}..{later.end}, "
                f"{size_b.describe()} bytes)",
                fix_hint="the slot assigner must not reuse a slot while "
                         "its occupant can still hold live bytes")
    return sink


def _consumed_symbols(graph) -> dict:
    """Symbol name -> first consuming node, for every symbol a frozen
    launch plan needs a value for: node result shapes plus shape-valued
    attrs (reshape/broadcast targets, iota shapes, slice specs)."""
    from ..ir.shapes import SymDim

    consumed: dict[str, object] = {}

    def note(dim, node) -> None:
        if isinstance(dim, SymDim):
            consumed.setdefault(dim.name, node)

    for node in graph.nodes:
        for dim in node.shape:
            note(dim, node)
        for key in ("new_shape", "out_shape", "shape", "starts",
                    "limits", "strides"):
            spec = node.attrs.get(key)
            if isinstance(spec, (tuple, list)):
                for dim in spec:
                    note(dim, node)
    return consumed


def check_plan_coverage(graph, imap: IntervalMap,
                        sink: DiagnosticSink | None = None
                        ) -> DiagnosticSink:
    """L603: frozen launch plans replay values not derivable per call.

    A :class:`~repro.runtime.launchplan.LaunchPlan` freezes schedules,
    buffer sizes and resolved dims once per signature.  That replay is
    sound only if every consumed symbol is a *function of the call
    signature*: bound from a parameter shape, pinned to a point by the
    constraints, or derived by the resolution plan.  A symbol outside
    that closure got its frozen value from record-time data — any other
    class member replays the wrong value.
    """
    sink = sink if sink is not None else DiagnosticSink()
    for name, node in sorted(_consumed_symbols(graph).items(),
                             key=lambda kv: kv[0]):
        if name in imap.determined:
            continue
        fact = imap.env.get(name)
        witness = f"; interval {fact.describe()}" if fact is not None \
            else ""
        sink.emit(
            "L603",
            f"launch-plan replay is unsound across the signature class: "
            f"symbol {name} is consumed but not derivable from the call "
            f"signature (not a parameter dim, not pinned by constraints, "
            f"not solvable by the resolution plan) — its frozen value "
            f"holds only at the recorded dims{witness}",
            node=node,
            fix_hint="bind the symbol from a parameter shape or make it "
                     "derivable (single-unknown reshape, concat, pad)")
    return sink


def _probe_values(interval: Interval, hint) -> tuple:
    """Representative members of ``interval`` for the L604 audit.

    Bounded-and-small intervals are returned whole (the audit is then
    exhaustive); otherwise the probes are the endpoints, the pow2
    regime-change points in range, and the likely-value hint — the
    places bucket-style ceilings can go wrong.
    """
    lo = interval.lo if interval.lo is not None else 1
    lo = max(lo, 1)
    bounded = interval.hi is not None
    hi = interval.hi if bounded else max(lo, hint or 0, _EXHAUSTIVE_LIMIT)
    if hi < lo:
        return (), False
    if hi - lo + 1 <= _EXHAUSTIVE_LIMIT:
        return tuple(range(lo, hi + 1)), bounded
    probes = {lo, hi}
    if hint is not None and lo <= hint <= hi:
        probes.add(hint)
    power = 1
    while power <= hi:
        for value in (power, power + 1):
            if lo <= value <= hi:
                probes.add(value)
        power <<= 1
    return tuple(sorted(probes)), False


def check_bucket_padding(bucketer, imap: IntervalMap,
                         sink: DiagnosticSink | None = None,
                         waste_threshold: float = WASTE_THRESHOLD
                         ) -> DiagnosticSink:
    """L604: a pad ceiling that truncates, or provably excessive waste.

    For each bucketing class the audit intersects the member symbols'
    intervals (the members are provably equal, so every member's bounds
    constrain the class) and then drives the bucketer's
    :meth:`~repro.serving.batching.ShapeBucketer.ceiling` over the
    class's values:

    - any value with ``ceiling(value) < value`` means padding would
      *truncate* a live axis — unsound for that member (always
      reported, witness value attached);
    - when the audit covered the class exhaustively and even the
      *best-case* waste ``1 - value / ceiling(value)`` exceeds
      ``waste_threshold``, the waste is provable for every member.
    """
    sink = sink if sink is not None else DiagnosticSink()
    for slot, symbols in enumerate(bucketer.class_symbols()):
        if not symbols:
            continue
        interval = Interval.top()
        hint = None
        chains: list = []
        for name in sorted(symbols):
            fact = imap.fact_of(_sym(name))
            interval = interval.meet(fact.interval)
            chains.extend(fact.chain)
            if hint is None:
                hint = fact.hint
        if interval.is_empty:
            continue  # L601 owns empty classes
        values, exhaustive = _probe_values(interval, hint)
        label = "/".join(sorted(symbols))
        # Audit the *effective* seam: budget-capped schedules route
        # through ``class_ceiling(slot, value)``; plain bucketers (and
        # subclasses overriding ``ceiling``) fall back unchanged.
        schedule = getattr(bucketer, "class_ceiling", None)
        min_waste = None
        for value in values:
            ceiling = schedule(slot, value) if schedule is not None \
                else bucketer.ceiling(value)
            if ceiling < value:
                sink.emit(
                    "L604",
                    f"bucket class {{{label}}} pad ceiling is not an "
                    f"upper bound: ceiling({value}) = {ceiling} would "
                    f"truncate a live axis (member interval {interval}; "
                    f"facts: {'; '.join(chains) or 'default domain'})",
                    fix_hint="the ceiling must dominate every value in "
                             "the class interval")
                break
            waste = 0.0 if ceiling == 0 else 1.0 - value / ceiling
            min_waste = waste if min_waste is None \
                else min(min_waste, waste)
        else:
            if exhaustive and min_waste is not None \
                    and min_waste > waste_threshold:
                sink.emit(
                    "L604",
                    f"bucket class {{{label}}} padding waste is "
                    f"provably > {waste_threshold:.0%} for every shape "
                    f"in the class (best case {min_waste:.0%} over "
                    f"interval {interval})",
                    fix_hint="tighten the ceiling schedule or split the "
                             "bucket range")
    return sink


def _sym(name: str):
    from ..ir.shapes import SymDim
    return SymDim(name)


def audit_stock_bucketer(graph, imap: IntervalMap,
                         sink: DiagnosticSink) -> None:
    """Run the L604 audit against the bucketer serving would build.

    Best-effort: a graph the bucketer cannot analyze contributes
    nothing (its defects belong to other analyzers).
    """
    try:
        from ..serving.batching import ShapeBucketer
        bucketer = ShapeBucketer(graph, graph.params)
    except Exception:  # noqa: BLE001 - not bucketable; nothing to audit
        return
    check_bucket_padding(bucketer, imap, sink)
