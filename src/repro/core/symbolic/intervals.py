"""Interval abstract domain over symbolic shape dims.

Everything the runtime freezes per signature — launch plans, memory
plans, batch plans — must be correct for *every* shape in the signature
class, not just the concrete shapes that happened to be recorded or
fuzzed.  This module is the prover those whole-class claims rest on:

- :class:`Interval` — a sound ``[lo, hi]`` range (either side may be
  unbounded) with the arithmetic the derived-dim semantics of
  ``numerics/resolve.py`` need: sums (concat), offsets (pad), ceil/floor
  division (conv2d, reshape solving) and products (element counts,
  byte sizes);
- :class:`IntervalFact` — an interval plus the blame chain of
  constraint-store facts and derivations that produced it;
- :func:`derive_intervals` — seeds one fact per symbol from the
  constraint store (class constants, explicit ``assume_range`` facts,
  the default extent domain ``v >= 1``) and then runs a forward
  abstract interpreter over the graph, mirroring the derivations of
  ``DimResolutionPlan`` (reshape solving with product-term
  cancellation, concat sums, pad offsets, conv2d spatial arithmetic);
- :func:`check_dynamic_bindings` — the dynamic cross-check the fuzz
  oracle runs: every concretely resolved symbol must lie inside its
  statically derived interval.

Likely-value hints (``SymDim.hint`` / ``note_likely_value``) are
deliberately *not* bounds: they ride along as annotations on each fact
(witness selection, waste estimates) but never narrow an interval —
only class constants and explicit ``assume_range`` facts are proven.

The ``repro.lint`` L6xx analyzers (``lint/interval_checks.py``) consume
the map: empty intervals (L601), symbolic memory-plan overlap (L602),
launch-plan signature coverage (L603), batch-bucket ceilings (L604) and
possible zero/negative extents reaching division sites (L605).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from ...ir.shapes import SymDim, format_shape
from .analysis import collect_node_facts
from .constraints import ConstraintStore

__all__ = [
    "Interval",
    "IntervalFact",
    "Hazard",
    "IntervalMap",
    "derive_intervals",
    "check_dynamic_bindings",
]


def _num(bound, sign: float) -> float:
    """A bound as a number; ``None`` maps to ``sign * inf``."""
    return sign * math.inf if bound is None else float(bound)


def _bound(value: float) -> int | None:
    """A number back to a bound; infinities map to ``None``."""
    if math.isinf(value):
        return None
    return int(value)


def _mul(a: float, b: float) -> float:
    """Product with the convention ``0 * inf == 0``.

    Sound for interval endpoints: the other factor is always finite at
    any concrete shape, so the concrete product is exactly 0.
    """
    if a == 0 or b == 0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class Interval:
    """A closed integer range; ``None`` means unbounded on that side."""

    lo: int | None
    hi: int | None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(value: int) -> "Interval":
        return Interval(int(value), int(value))

    @staticmethod
    def at_least(lo: int) -> "Interval":
        return Interval(int(lo), None)

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def empty() -> "Interval":
        return Interval(1, 0)

    # -- predicates --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None \
            and self.lo > self.hi

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.is_empty:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def can_be_nonpositive(self) -> bool:
        """True when some member of the range is <= 0."""
        return not self.is_empty and (self.lo is None or self.lo <= 0)

    def can_be_positive(self) -> bool:
        """True when some member of the range is > 0."""
        return not self.is_empty and (self.hi is None or self.hi > 0)

    # -- lattice -----------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        """Union hull: the smallest interval containing both."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = None if self.lo is None or other.lo is None \
            else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None \
            else max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        """Intersection; may be empty."""
        if self.is_empty or other.is_empty:
            return Interval.empty()
        lo = other.lo if self.lo is None else (
            self.lo if other.lo is None else max(self.lo, other.lo))
        hi = other.hi if self.hi is None else (
            self.hi if other.hi is None else min(self.hi, other.hi))
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Standard widening: drop any bound the new value moved past."""
        if self.is_empty:
            return newer
        if newer.is_empty:
            return self
        lo = self.lo if self.lo is not None and newer.lo is not None \
            and newer.lo >= self.lo else None
        hi = self.hi if self.hi is not None and newer.hi is not None \
            and newer.hi <= self.hi else None
        return Interval(lo, hi)

    # -- arithmetic (all sound over-approximations) ------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        return Interval(
            _bound(_num(self.lo, -1) + _num(other.lo, -1)),
            _bound(_num(self.hi, 1) + _num(other.hi, 1)))

    def add_const(self, delta: int) -> "Interval":
        return self.add(Interval.point(delta))

    def sub(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        return Interval(
            _bound(_num(self.lo, -1) - _num(other.hi, 1)),
            _bound(_num(self.hi, 1) - _num(other.lo, -1)))

    def mul(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        products = [
            _mul(a, b)
            for a in (_num(self.lo, -1), _num(self.hi, 1))
            for b in (_num(other.lo, -1), _num(other.hi, 1))]
        return Interval(_bound(min(products)), _bound(max(products)))

    def floordiv(self, other: "Interval") -> "Interval":
        """Floor division by a strictly positive divisor range.

        Callers must clamp ``other`` away from zero first (the interval
        engine does, emitting an L605 hazard when the clamp was needed).
        """
        if self.is_empty or other.is_empty:
            return Interval.empty()
        assert other.lo is not None and other.lo >= 1, \
            f"floordiv by a range not proven positive: {other}"
        quotients = []
        for a in (_num(self.lo, -1), _num(self.hi, 1)):
            for b in (float(other.lo), _num(other.hi, 1)):
                if math.isinf(a):
                    quotients.append(a if not math.isinf(b)
                                     else math.copysign(0.0, a))
                elif math.isinf(b):
                    # a finite / b -> inf tends to 0 from the a-sign side.
                    quotients.append(float(int(a) // int(_LARGE))
                                     if abs(a) >= _LARGE else
                                     float(int(a) // _LARGE))
                else:
                    quotients.append(float(int(a) // int(b)))
        return Interval(_bound(min(quotients)), _bound(max(quotients)))

    def floordiv_const(self, k: int) -> "Interval":
        return self.floordiv(Interval.point(k))

    def ceildiv_const(self, k: int) -> "Interval":
        """Ceiling division by a positive constant (conv2d "same")."""
        assert k >= 1
        if self.is_empty:
            return Interval.empty()
        lo = None if self.lo is None else -(-self.lo // k)
        hi = None if self.hi is None else -(-self.hi // k)
        return Interval(lo, hi)

    def clamp_lo(self, lo: int) -> "Interval":
        """Raise the lower bound to at least ``lo`` (used to guard
        division); may produce an empty interval."""
        return self.meet(Interval.at_least(lo))

    def __str__(self) -> str:
        if self.is_empty:
            return "[empty]"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


#: Divisor stand-in for an unbounded bound in floordiv: any finite
#: numerator divided by an arbitrarily large divisor lands in {-1, 0}
#: (floor semantics), which ``a // _LARGE`` reproduces exactly.
_LARGE = 10 ** 30


@dataclass(frozen=True)
class IntervalFact:
    """An interval plus the chain of facts that produced it.

    ``chain`` is blame-style provenance, seed-first: each entry names one
    constraint-store fact or one derivation step.  ``hint`` is the
    likely-value annotation — heuristic only, never a bound.

    ``proven`` distinguishes fact-backed intervals (class constants,
    ``assume_range``, derivations) from the *default extent domain*
    seeded onto symbols with no facts at all.  The default ``v >= 1``
    is a convention about free input dims; it must never launder a
    derived quantity's possible zero into positivity, so derivations
    meet only against proven base facts.
    """

    interval: Interval
    chain: tuple = ()
    hint: int | None = None
    proven: bool = True

    def proven_interval(self) -> Interval:
        """The interval backed by facts alone (TOP when defaulted)."""
        return self.interval if self.proven else Interval.top()

    def extend(self, interval: Interval, step: str) -> "IntervalFact":
        return IntervalFact(interval, self.chain + (step,), self.hint)

    def describe(self) -> str:
        chain = " <- ".join(reversed(self.chain)) if self.chain \
            else "no facts"
        return f"{self.interval} ({chain})"


@dataclass(frozen=True)
class Hazard:
    """One possible-zero/negative-extent finding (lint code L605)."""

    node: object
    message: str
    fact: IntervalFact


class IntervalMap:
    """Per-symbol interval facts for one graph, plus derived metadata.

    - :attr:`env` — symbol name -> :class:`IntervalFact`;
    - :attr:`determined` — symbols whose launch value is a function of
      the call signature: parameter-shape symbols, class constants /
      point ranges, and symbols the forward pass derived (exactly the
      closure ``DimResolutionPlan`` can solve);
    - :attr:`hazards` — possible zero/negative extents at division or
      reshape sites (L605 evidence);
    - :attr:`contradictions` — ``(symbol, node, fact)`` entries whose
      interval became empty (L601 evidence); ``node`` is ``None`` when
      the seed facts alone were contradictory.
    """

    def __init__(self, graph, store: ConstraintStore) -> None:
        self.graph = graph
        self.store = store
        self.env: dict[str, IntervalFact] = {}
        self.determined: set[str] = set()
        self.hazards: list[Hazard] = []
        self.contradictions: list[tuple] = []
        #: derived symbol -> product term over free symbols
        #: (coeff, Counter of names), for reshape-solve cancellation.
        self._terms: dict[str, tuple] = {}

    # -- queries -----------------------------------------------------------

    def fact_of(self, dim) -> IntervalFact:
        """The fact for one dim; ints are exact, unknown symbols TOP."""
        if isinstance(dim, int):
            return IntervalFact(Interval.point(dim),
                                (f"static dim {dim}",))
        name = dim.name if isinstance(dim, SymDim) else str(dim)
        fact = self.env.get(name)
        if fact is None:
            fact = IntervalFact(Interval.at_least(1),
                                (f"{name} >= 1 (default extent domain)",),
                                proven=False)
            self.env[name] = fact
        return fact

    def interval_of(self, dim) -> Interval:
        return self.fact_of(dim).interval

    def product_fact(self, shape) -> IntervalFact:
        """Interval of a shape's element count, with merged provenance."""
        interval = Interval.point(1)
        chain: list = []
        for dim in shape:
            fact = self.fact_of(dim)
            interval = interval.mul(fact.interval)
            if not isinstance(dim, int):
                chain.extend(fact.chain)
        return IntervalFact(
            interval,
            (f"|{format_shape(shape)}| in {interval}",) + tuple(chain))

    def size_fact(self, serialized_shape, dtype_size: int) -> IntervalFact:
        """Byte-size interval of a *serialized* shape (ints and symbol
        names), the representation buffer plans and cost recipes carry."""
        interval = Interval.point(1)
        chain: list = []
        for entry in serialized_shape:
            if isinstance(entry, str):
                fact = self.fact_of(SymDim(entry))
                interval = interval.mul(fact.interval)
                chain.extend(fact.chain)
            else:
                interval = interval.mul(Interval.point(int(entry)))
        interval = interval.mul(Interval.point(int(dtype_size)))
        return IntervalFact(
            interval,
            (f"bytes({tuple(serialized_shape)}) * {dtype_size} "
             f"in {interval}",) + tuple(chain))

    def empty_symbols(self) -> list:
        """Symbols whose final interval is empty (beyond the per-node
        contradictions recorded during propagation)."""
        return [(name, fact) for name, fact in sorted(self.env.items())
                if fact.interval.is_empty]

    # -- internal recording ------------------------------------------------

    def _record(self, name: str, fact: IntervalFact, node) -> None:
        self.env[name] = fact
        self.determined.add(name)
        if fact.interval.is_empty:
            self.contradictions.append((name, node, fact))

    def _hazard(self, node, message: str, fact: IntervalFact) -> None:
        self.hazards.append(Hazard(node, message, fact))


def _expand_term(shape, terms: dict) -> tuple:
    """A shape's element count as ``(coeff, Counter)`` over *free*
    symbols: derived symbols are substituted by their own product terms
    so reshape solving can cancel exactly."""
    coeff = 1
    syms: Counter = Counter()
    for dim in shape:
        if isinstance(dim, int):
            coeff *= dim
            continue
        sub = terms.get(dim.name)
        if sub is not None:
            coeff *= sub[0]
            syms.update(sub[1])
        else:
            syms[dim.name] += 1
    return coeff, syms


def _seed_symbol(store: ConstraintStore, sym: SymDim) -> IntervalFact:
    """One symbol's seed fact from the constraint store.

    Proven sources only: the class constant and ``assume_range`` facts.
    With neither, the default extent domain ``v >= 1`` applies (the
    repo-wide shape convention: extents are positive; record an explicit
    ``assume_range(s, 0, ...)`` to model possibly-empty axes).  The
    likely-value hint is attached as an annotation, never as a bound.
    """
    facts = store.range_facts(sym)
    hint = store.likely_value(sym)
    if not facts:
        return IntervalFact(
            Interval.at_least(1),
            (f"{sym.name} >= 1 (default extent domain)",), hint,
            proven=False)
    interval = Interval.top()
    chain: list = []
    for fact in facts:
        if fact[0] == "constant":
            interval = interval.meet(Interval.point(fact[1]))
            chain.append(f"{sym.name} = {fact[1]} (class constant)")
        else:
            __, key, lo, hi = fact
            interval = interval.meet(Interval(lo, hi))
            chain.append(f"{key} in {Interval(lo, hi)} (assume_range)")
    return IntervalFact(interval, tuple(chain), hint)


def _graph_symbols(graph) -> list:
    """Every symbol the graph mentions: the symbol table plus any
    symbols appearing only in shapes or shape-valued attrs."""
    symbols: dict[str, SymDim] = {
        sym.name: sym for sym in graph.symtab.symbols()}

    def note(dim) -> None:
        if isinstance(dim, SymDim):
            symbols.setdefault(dim.name, dim)

    for node in graph.nodes:
        for dim in node.shape:
            note(dim)
        for key in ("new_shape", "out_shape", "shape", "starts",
                    "limits", "strides"):
            spec = node.attrs.get(key)
            if isinstance(spec, (tuple, list)):
                for dim in spec:
                    note(dim)
    return list(symbols.values())


def derive_intervals(graph, assume_ranges=None,
                     store: ConstraintStore | None = None) -> IntervalMap:
    """Seed per-symbol intervals and forward-propagate through ``graph``.

    ``assume_ranges`` maps symbol names to ``(lo, hi)`` facts recorded
    into the (fresh or supplied) constraint store before seeding.  The
    walk is defensive: a structurally broken node contributes nothing
    rather than aborting the analysis — the structural analyzers own
    those findings.
    """
    if store is None:
        store = ConstraintStore()
        for node in graph.nodes:
            try:
                collect_node_facts(node, store, full=True)
                for dim in node.shape:
                    if isinstance(dim, SymDim):
                        store.note_likely_value(dim)
            except Exception:  # noqa: BLE001 - L101/L00x territory
                continue
    for name, bounds in (assume_ranges or {}).items():
        lo, hi = bounds
        store.assume_range(name, lo, hi)

    imap = IntervalMap(graph, store)
    for sym in _graph_symbols(graph):
        fact = _seed_symbol(store, sym)
        imap.env[sym.name] = fact
        if fact.interval.is_empty:
            imap.contradictions.append((sym.name, None, fact))
        if fact.interval.is_point:
            imap.determined.add(sym.name)
    for param in graph.params:
        for dim in param.shape:
            if isinstance(dim, SymDim):
                imap.determined.add(dim.name)

    for node in graph.nodes:
        try:
            _propagate_node(node, imap)
        except Exception:  # noqa: BLE001 - malformed node; keep walking
            continue
    return imap


def _propagate_node(node, imap: IntervalMap) -> None:
    op = node.op
    if op == "reshape":
        _propagate_reshape(node, imap)
    elif op == "concat":
        _propagate_concat(node, imap)
    elif op == "pad":
        _propagate_pad(node, imap)
    elif op == "conv2d":
        _propagate_conv(node, imap)
    elif op == "reduce" and node.attrs.get("kind") == "mean":
        divisor = imap.product_fact(
            [node.inputs[0].shape[a] for a in node.attrs["axes"]])
        if divisor.interval.can_be_nonpositive():
            imap._hazard(
                node,
                f"mean reduces over extents whose product "
                f"{divisor.interval} can be 0 (division by zero for some "
                f"shape in the class)", divisor)


def _propagate_reshape(node, imap: IntervalMap) -> None:
    targets = node.attrs["new_shape"]
    unknown = [d for d in targets
               if isinstance(d, SymDim) and d.name not in imap.determined]
    if len(unknown) != 1:
        # 0 unknowns: nothing to solve.  >= 2: underivable from the
        # signature — the L603 coverage check reports it.
        return
    sym = unknown[0]
    operand = node.inputs[0].shape
    total_coeff, total_syms = _expand_term(operand, imap._terms)
    known_coeff, known_syms = _expand_term(
        [d for d in targets if not (isinstance(d, SymDim)
                                    and d.name == sym.name)], imap._terms)

    base = imap.fact_of(sym)
    if known_coeff > 0 and total_coeff % known_coeff == 0 and \
            not (known_syms - total_syms):
        # Exact cancellation: sym = coeff * product(remaining free syms).
        coeff = total_coeff // known_coeff
        remaining = total_syms - known_syms
        solved = Interval.point(coeff)
        for name, power in sorted(remaining.items()):
            for __ in range(power):
                solved = solved.mul(imap.fact_of(SymDim(name)).interval)
        term_desc = " * ".join(
            [str(coeff)] + [name for name, p in sorted(remaining.items())
                            for __ in range(p)])
        step = (f"{sym.name} = {term_desc} solved at reshape "
                f"{node.short()} -> {solved}")
        imap._terms[sym.name] = (coeff, remaining)
    else:
        # No clean cancellation; fall back to interval division.
        total = imap.product_fact(operand)
        known = imap.product_fact(
            [d for d in targets if not (isinstance(d, SymDim)
                                        and d.name == sym.name)])
        divisor = known.interval
        if divisor.can_be_nonpositive():
            imap._hazard(
                node,
                f"solving {sym.name} divides by known target extent "
                f"{divisor} which can be 0 for some shape in the class",
                known)
        divisor = divisor.clamp_lo(1)
        if divisor.is_empty:
            return
        solved = total.interval.floordiv(divisor)
        step = (f"{sym.name} = |{format_shape(operand)}| // {divisor} "
                f"solved at reshape {node.short()} -> {solved}")
    met = base.proven_interval().meet(solved)
    fact = base.extend(met, step)
    imap._record(sym.name, fact, node)
    if met.can_be_nonpositive():
        imap._hazard(
            node,
            f"solved reshape extent {sym.name} in {met} can be <= 0 for "
            f"some shape in the class", fact)


def _propagate_concat(node, imap: IntervalMap) -> None:
    axis = node.attrs["axis"]
    out = node.shape[axis]
    if not isinstance(out, SymDim) or out.name in imap.determined:
        return
    total = Interval.point(0)
    chain: list = []
    for operand in node.inputs:
        fact = imap.fact_of(operand.shape[axis])
        total = total.add(fact.interval)
        if isinstance(operand.shape[axis], SymDim):
            chain.extend(fact.chain)
    base = imap.fact_of(out)
    met = base.proven_interval().meet(total)
    step = (f"{out.name} = sum of concat operand extents at "
            f"{node.short()} -> {total}")
    imap._record(out.name, IntervalFact(
        met, base.chain + tuple(chain) + (step,), base.hint), node)


def _propagate_pad(node, imap: IntervalMap) -> None:
    for axis, (lo, hi) in enumerate(node.attrs["pads"]):
        out = node.shape[axis]
        if not isinstance(out, SymDim) or out.name in imap.determined:
            continue
        src = imap.fact_of(node.inputs[0].shape[axis])
        derived = src.interval.add_const(int(lo) + int(hi))
        base = imap.fact_of(out)
        met = base.proven_interval().meet(derived)
        step = (f"{out.name} = input extent + {lo} + {hi} at pad "
                f"{node.short()} -> {derived}")
        imap._record(out.name, IntervalFact(
            met, base.chain + src.chain + (step,), base.hint), node)


def _propagate_conv(node, imap: IntervalMap) -> None:
    strides = node.attrs.get("strides", (1, 1))
    same = node.attrs.get("padding", "same") == "same"
    for spatial, stride in ((1, strides[0]), (2, strides[1])):
        out = node.shape[spatial]
        if not isinstance(out, SymDim) or out.name in imap.determined:
            continue
        src = imap.fact_of(node.inputs[0].shape[spatial])
        kernel = int(node.inputs[1].shape[spatial - 1])
        if same:
            derived = src.interval.ceildiv_const(stride)
            step = (f"{out.name} = ceil(input / {stride}) at conv2d "
                    f"{node.short()} -> {derived}")
        else:
            derived = src.interval.add_const(-kernel) \
                .floordiv_const(stride).add_const(1)
            step = (f"{out.name} = (input - {kernel}) // {stride} + 1 "
                    f"at conv2d {node.short()} -> {derived}")
        base = imap.fact_of(out)
        met = base.proven_interval().meet(derived)
        fact = IntervalFact(met, base.chain + src.chain + (step,),
                            base.hint)
        imap._record(out.name, fact, node)
        if met.can_be_nonpositive():
            imap._hazard(
                node,
                f"conv2d 'valid' output extent {out.name} in {met} can "
                f"be <= 0 (input extent can be smaller than the "
                f"{kernel}-wide kernel)", fact)


def check_dynamic_bindings(graph, bindings) -> list:
    """Dynamic-vs-static cross-check (the fuzz ``--lint`` oracle).

    Resolves every derivable symbol from ``bindings`` exactly as the
    runtime does, then asserts each concrete value lies inside the
    statically derived interval.  Returns violation descriptions (empty
    when the abstraction is sound for this case).
    """
    from ...numerics.resolve import resolve_all_dims

    full = dict(bindings)
    resolve_all_dims(graph.nodes, full)
    imap = derive_intervals(graph)
    violations = []
    for name, value in sorted(full.items()):
        fact = imap.env.get(name)
        if fact is None:
            continue
        if not fact.interval.contains(int(value)):
            violations.append(
                f"symbol {name}={value} falls outside its static "
                f"interval {fact.describe()}")
    return violations
