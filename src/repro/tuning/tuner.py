"""Cost-model-guided schedule autotuning with a microsecond budget.

A TVM-style autotuner *measures* thousands of candidate schedules per
kernel — minutes to hours per shape, untenable when shapes are not
known until serving time.  This tuner makes the opposite bet, the one
the paper's cost-recipe machinery enables: every kernel already carries
symbolic byte/flop formulas, so a candidate schedule can be *scored*
analytically in microseconds instead of measured in seconds.  The
search is then cheap enough to run in the serving runtime's background
compile pool, under an explicit budget:

- the strategy space (:mod:`repro.tuning.space`) is walked per
  schedulable kernel and pruned against the device's launch limits;
- survivors are scored with :func:`kernel_time_us` at the signature's
  concrete dims — or, for a whole symbolic signature *class*, at
  representative dims derived from the interval engine;
- the winner per kernel is the exact ``(time, extra_launches, name)``
  minimum, so the same signature and budget always tune to the same
  plan;
- every enumeration and scoring step charges a simulated-microsecond
  account (:data:`repro.device.compilecost.TUNING_COSTS`); when the
  next step would overrun the budget the remaining kernels keep their
  heuristic picks — spent time never exceeds the budget.

Because the generic dispatch variants are always candidates, a tuned
plan is never slower than the heuristic plan it replaces, and a search
that finds nothing better degrades to exactly the heuristic choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.codegen.schedules import (ELEMENTWISE_SCHEDULES,
                                      HEURISTIC_SELECTOR,
                                      REDUCTION_SCHEDULES, Schedule,
                                      ScheduleSelector)
from ..core.symbolic.intervals import derive_intervals
from ..device.compilecost import tuning_cost_us
from ..device.cost import kernel_time_us, occupancy
from ..device.profiles import DeviceProfile
from ..ir.shapes import SymDim
from ..obs.tracer import resolve_tracer
from .space import (COL_SPLITS, PRUNE_RULES, THREAD_COUNTS, VECTOR_WIDTHS,
                    StrategySpace)

__all__ = ["KernelTuning", "ScheduleTuner", "TunedSelector",
           "TuningOptions", "TuningResult", "WorstCaseSelector",
           "representative_signature"]


@dataclass
class TuningOptions:
    """Search knobs: the budget and the scoring efficiency."""

    #: simulated-microsecond ceiling on one signature's search.
    budget_us: float = 250_000.0
    #: codegen-quality factor candidates are scored under; matches
    #: ``EngineOptions.base_efficiency`` so scores equal charged times.
    base_efficiency: float = 0.95


class TunedSelector(ScheduleSelector):
    """Per-kernel tuned winners, heuristics for everything else.

    A pick only applies when its family fits the kernel's iteration
    domain (a row-space winner cannot serve a flat loop); anything
    without an applicable pick falls back to ``fallback`` — by default
    the generic dispatch-stub heuristics.
    """

    def __init__(self, picks: dict,
                 fallback: ScheduleSelector | None = None) -> None:
        self.picks = dict(picks)
        self.fallback = fallback if fallback is not None \
            else HEURISTIC_SELECTOR

    def elementwise(self, kernel, total_elements: int,
                    innermost: int) -> Schedule:
        pick = self.picks.get(kernel.name)
        if pick is not None and not pick.row_space:
            return pick
        return self.fallback.elementwise(kernel, total_elements,
                                         innermost)

    def reduction(self, kernel, rows: int, cols: int) -> Schedule:
        pick = self.picks.get(kernel.name)
        if pick is not None and pick.row_space:
            return pick
        return self.fallback.reduction(kernel, rows, cols)


class WorstCaseSelector(ScheduleSelector):
    """Adversarial policy: the *legal* generic variant the cost model
    likes least (lowest efficiency x occupancy).  E9 uses it to bound
    how much a schedule decision can possibly matter per shape."""

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device

    def _worst(self, schedules, profile) -> Schedule:
        scored = []
        for sched in schedules:
            eff, par = profile(sched)
            scored.append((eff * occupancy(par, self.device),
                           sched.name, sched))
        return min(scored)[2]

    def elementwise(self, kernel, total_elements: int,
                    innermost: int) -> Schedule:
        legal = [s for s in ELEMENTWISE_SCHEDULES
                 if s.name != "vectorized4"
                 or (innermost % 4 == 0 and total_elements >= 4)]
        return self._worst(
            legal, lambda s: s.elementwise_profile(total_elements))

    def reduction(self, kernel, rows: int, cols: int) -> Schedule:
        return self._worst(
            REDUCTION_SCHEDULES,
            lambda s: s.reduction_profile(rows, cols))


@dataclass
class KernelTuning:
    """What the search did for one kernel."""

    name: str
    #: ``"loop"`` or ``"rows"``.
    domain: str
    #: (total, innermost) or (rows, cols) the search scored at.
    extents: tuple
    winner: str
    winner_time_us: float
    heuristic: str
    heuristic_time_us: float
    enumerated: int = 0
    scored: int = 0
    pruned: dict = field(default_factory=dict)
    #: simulated microseconds this kernel charged the budget.
    cost_us: float = 0.0
    #: True when the budget ran out before (or while) searching this
    #: kernel — its pick is the heuristic one.
    skipped: bool = False

    @property
    def improved(self) -> bool:
        return self.winner_time_us < self.heuristic_time_us


@dataclass
class TuningResult:
    """One signature's search outcome: picks plus full accounting."""

    picks: dict
    kernels: list
    budget_us: float
    spent_us: float
    budget_exhausted: bool
    #: the signature the search scored at (for a symbolic class, the
    #: representative signature the interval engine produced).
    signature: tuple | None = None

    def selector(self) -> TunedSelector:
        """The selection policy freezing these winners into a plan."""
        return TunedSelector(self.picks)

    def pick_names(self) -> dict:
        return {name: sched.name for name, sched in self.picks.items()}

    @property
    def enumerated(self) -> int:
        return sum(k.enumerated for k in self.kernels)

    @property
    def scored(self) -> int:
        return sum(k.scored for k in self.kernels)

    @property
    def pruned(self) -> dict:
        totals = dict.fromkeys(PRUNE_RULES, 0)
        for kernel in self.kernels:
            for rule, count in kernel.pruned.items():
                totals[rule] = totals.get(rule, 0) + count
        return totals

    @property
    def tuned_time_us(self) -> float:
        """Scored device time of the schedulable kernels, tuned picks."""
        return sum(k.winner_time_us for k in self.kernels)

    @property
    def heuristic_time_us(self) -> float:
        """Same kernels under the dispatch-stub heuristics."""
        return sum(k.heuristic_time_us for k in self.kernels)

    def summary(self) -> dict:
        """JSON-able digest for benches, stats endpoints and artifacts."""
        tuned = self.tuned_time_us
        heuristic = self.heuristic_time_us
        return {
            "kernels": len(self.kernels),
            "improved": sum(1 for k in self.kernels if k.improved),
            "skipped": sum(1 for k in self.kernels if k.skipped),
            "enumerated": self.enumerated,
            "scored": self.scored,
            "pruned": {r: c for r, c in self.pruned.items() if c},
            "budget_us": self.budget_us,
            "spent_us": self.spent_us,
            "budget_exhausted": self.budget_exhausted,
            "heuristic_time_us": heuristic,
            "tuned_time_us": tuned,
            "speedup": heuristic / tuned if tuned else 1.0,
            "picks": self.pick_names(),
        }


def representative_signature(executable,
                             assume_ranges: dict | None = None) -> tuple:
    """Concrete dims standing in for a whole symbolic signature class.

    Symbolic extents are resolved through the interval engine
    (:func:`derive_intervals`, seeded with ``assume_ranges``): a
    contained likely-value hint wins, then a point interval's value,
    then the midpoint of a finite range, then the lower bound (floored
    at 16 so an unbounded ``v >= 1`` does not tune for degenerate
    one-element launches).
    """
    imap = derive_intervals(executable.graph, assume_ranges)
    signature = []
    for param in executable.params:
        shape = []
        for dim in param.shape:
            if isinstance(dim, SymDim):
                shape.append(_representative_extent(imap.fact_of(dim)))
            else:
                shape.append(int(dim))
        signature.append((param.attrs["param_name"], tuple(shape)))
    return tuple(signature)


def _representative_extent(fact) -> int:
    interval = fact.interval
    if fact.hint is not None and interval.contains(fact.hint):
        return int(fact.hint)
    if interval.is_point:
        return int(interval.lo)
    lo = int(interval.lo) if interval.lo is not None else 1
    if interval.hi is not None:
        return max(1, (lo + int(interval.hi)) // 2)
    return max(lo, 16)


class ScheduleTuner:
    """Budgeted per-signature schedule search over one device's space."""

    def __init__(self, device: DeviceProfile,
                 options: TuningOptions | None = None,
                 tracer=None) -> None:
        self.device = device
        self.options = options or TuningOptions()
        self.tracer = resolve_tracer(tracer)
        self.space = StrategySpace(device, THREAD_COUNTS, VECTOR_WIDTHS,
                                   COL_SPLITS)

    # -- entry points ------------------------------------------------------

    def tune(self, executable, signature: tuple) -> TuningResult:
        """Search every schedulable kernel at ``signature``'s dims."""
        dims = executable.host_program.bind_signature(signature)
        return self.tune_dims(executable, dims, signature)

    def tune_class(self, executable,
                   assume_ranges: dict | None = None) -> TuningResult:
        """Tune a symbolic signature class at representative dims."""
        signature = representative_signature(executable, assume_ranges)
        return self.tune(executable, signature)

    def estimate_cost_us(self, executable) -> float:
        """Static upper bound on the search's budget charge.

        Grid sizes are shape-independent and pruning/skipping only ever
        shrinks the scored set, so this is computable before any dims
        are known and actual spend never exceeds it.  The serving
        runtime sizes background-tuning jobs with
        ``min(budget_us, estimate)``.
        """
        loops = rows = 0
        for kernel in self._schedulable(executable):
            if kernel.recipe.domain[0] == "loop":
                loops += 1
            else:
                rows += 1
        enumerated = (loops * self.space.elementwise_grid_size
                      + rows * self.space.reduction_grid_size)
        return tuning_cost_us(kernels=loops + rows,
                              enumerated=enumerated, scored=enumerated)

    # -- the search --------------------------------------------------------

    @staticmethod
    def _schedulable(executable) -> list:
        return [k for k in executable.kernels
                if k.recipe.domain is not None]

    def tune_dims(self, executable, dims: dict,
                  signature: tuple | None = None) -> TuningResult:
        """Core search at already-resolved dim bindings."""
        tracer = self.tracer
        budget = self.options.budget_us
        kernels = self._schedulable(executable)
        picks: dict[str, Schedule] = {}
        records: list[KernelTuning] = []
        spent = 0.0
        exhausted = False
        with tracer.span("tuning:search", kernels=len(kernels),
                         budget_us=budget) as span:
            for kernel in kernels:
                domain = kernel.recipe.domain[0]
                grid = self.space.elementwise_grid_size \
                    if domain == "loop" else self.space.reduction_grid_size
                walk_bound = tuning_cost_us(kernels=1, enumerated=grid)
                if exhausted or spent + walk_bound > budget:
                    if not exhausted:
                        exhausted = True
                        tracer.event("tuning:budget_exhausted",
                                     kernel=kernel.name, spent_us=spent,
                                     budget_us=budget)
                    records.append(self._heuristic_record(kernel, dims,
                                                          domain))
                    continue
                record, winner, over = self._tune_kernel(
                    kernel, dims, domain, budget - spent)
                spent += record.cost_us
                records.append(record)
                if over:
                    # The walk fit but scoring the survivors would not:
                    # the enumeration charge stands, the pick does not.
                    exhausted = True
                    tracer.event("tuning:budget_exhausted",
                                 kernel=kernel.name, spent_us=spent,
                                 budget_us=budget)
                    continue
                picks[kernel.name] = winner
            span.set(spent_us=spent, budget_exhausted=exhausted,
                     picks=len(picks))
        return TuningResult(picks=picks, kernels=records,
                            budget_us=budget, spent_us=spent,
                            budget_exhausted=exhausted,
                            signature=signature)

    def _tune_kernel(self, kernel, dims: dict, domain: str,
                     remaining_us: float) -> tuple:
        """Search one kernel; returns (record, winner, budget_overrun)."""
        base = self.options.base_efficiency
        with self.tracer.span("tuning:kernel",
                              kernel=kernel.name) as span:
            __, major, minor = kernel.domain_extents(dims)
            if domain == "loop":
                result = self.space.elementwise_candidates(major, minor)
            else:
                result = self.space.reduction_candidates(major, minor)
            heuristic = kernel.select_schedule(dims)
            cost = tuning_cost_us(kernels=1,
                                  enumerated=result.enumerated)
            score_cost = tuning_cost_us(scored=len(result.candidates))
            if cost + score_cost > remaining_us:
                record = self._heuristic_record(kernel, dims, domain)
                record.enumerated = result.enumerated
                record.pruned = {r: c for r, c in result.pruned.items()
                                 if c}
                record.cost_us = cost
                span.set(outcome="budget_overrun",
                         enumerated=result.enumerated)
                return record, heuristic, True
            cost += score_cost
            best_key = None
            winner = None
            heuristic_time = 0.0
            winner_time = 0.0
            for sched in result.candidates:
                spec = kernel.cost_spec(dims, sched, base)
                time_us = kernel_time_us(spec, self.device)
                if sched.name == heuristic.name:
                    heuristic_time = time_us
                key = (time_us, sched.extra_launches, sched.name)
                if best_key is None or key < best_key:
                    best_key, winner, winner_time = key, sched, time_us
            record = KernelTuning(
                name=kernel.name, domain=domain, extents=(major, minor),
                winner=winner.name, winner_time_us=winner_time,
                heuristic=heuristic.name,
                heuristic_time_us=heuristic_time,
                enumerated=result.enumerated,
                scored=len(result.candidates),
                pruned={r: c for r, c in result.pruned.items() if c},
                cost_us=cost)
            span.set(enumerated=result.enumerated,
                     scored=len(result.candidates),
                     pruned=result.pruned_total, winner=winner.name,
                     winner_time_us=winner_time,
                     heuristic=heuristic.name,
                     heuristic_time_us=heuristic_time, cost_us=cost)
            return record, winner, False

    def _heuristic_record(self, kernel, dims: dict,
                          domain: str) -> KernelTuning:
        """A skipped kernel's record: heuristic pick on both sides."""
        __, major, minor = kernel.domain_extents(dims)
        schedule = kernel.select_schedule(dims)
        spec = kernel.cost_spec(dims, schedule,
                                self.options.base_efficiency)
        time_us = kernel_time_us(spec, self.device)
        return KernelTuning(
            name=kernel.name, domain=domain, extents=(major, minor),
            winner=schedule.name, winner_time_us=time_us,
            heuristic=schedule.name, heuristic_time_us=time_us,
            skipped=True)
