"""Declarative schedule strategy space with hardware-aware pruning.

The autotuner does not sample schedules at random: it walks a small
declarative grid — block threads x vector width x column split for
row-space kernels, vector width for flat-loop kernels — and prunes it
against the device's launch-configuration limits *before* any candidate
is scored, so the cost model is only consulted for candidates the
hardware could plausibly run well.

Pruning rules, in the order applied to each tuned candidate:

- ``threads`` — block exceeds ``device.max_threads_per_block``;
- ``vector_bytes`` — a per-lane access wider than
  ``device.max_vector_bytes`` (no such load instruction exists);
- ``smem`` — double-buffered tile staging (``2 * 4 bytes * threads *
  vector_width``) exceeds the per-block shared-memory carve-out;
- ``misaligned`` — the vector width does not divide the innermost
  extent, so the variant's aligned wide accesses are illegal;
- ``split_excess`` — more column segments than columns;
- ``split_unneeded`` — a column split whose combine launch buys
  nothing because the unsplit grid already saturates the device;
- ``overshoot`` — the tile covers its row segment more than 4x over,
  guaranteeing mostly-idle lanes;
- ``occupancy`` — the candidate exposes less than half the parallelism
  the problem supports (capped at device saturation);
- ``dominated`` — some other candidate is at least as efficient, at
  least as parallel, and launches no more kernels.  Generic variants
  win ties: they ship with every kernel and need no specialised
  codegen.

The generic dispatch variants are always candidates and are never
pruned themselves, so whatever the heuristic stub would have picked is
always in the scored set — the search can never return a worse pick
than the dispatch stub's, and an empty tuned grid degrades to exactly
the heuristic choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.codegen.schedules import (ELEMENTWISE_SCHEDULES,
                                      EW_VECTOR_WIDTHS,
                                      REDUCTION_SCHEDULES,
                                      ROW_TILE_VECTOR_WIDTHS, Schedule,
                                      elementwise_vec, row_tile)
from ..device.profiles import DeviceProfile

__all__ = ["COL_SPLITS", "PRUNE_RULES", "SpaceResult", "StrategySpace",
           "THREAD_COUNTS", "VECTOR_WIDTHS"]

#: the grid bounds the tuner searches.
THREAD_COUNTS = (32, 64, 128, 256, 512, 1024)
VECTOR_WIDTHS = (1, 2, 4, 8)
COL_SPLITS = (1, 2, 4, 8, 16, 32)

#: every rule a candidate can be pruned under, in application order.
PRUNE_RULES = ("threads", "vector_bytes", "smem", "misaligned",
               "split_excess", "split_unneeded", "overshoot",
               "occupancy", "dominated")


@dataclass
class SpaceResult:
    """Survivors of one kernel's strategy-space walk."""

    #: surviving :class:`Schedule` variants, in deterministic order
    #: (generic dispatch variants first, then grid order).
    candidates: tuple
    #: grid points walked, generic variants included.
    enumerated: int
    #: rule name -> candidates pruned under it.
    pruned: dict

    @property
    def pruned_total(self) -> int:
        return sum(self.pruned.values())


@dataclass
class _Candidate:
    schedule: Schedule
    efficiency: float
    parallel: int
    generic: bool


class StrategySpace:
    """The tuned-variant grid for one device, plus its pruning rules.

    ``thread_counts`` / ``vector_widths`` / ``col_splits`` bound the
    grid (the tuner passes :data:`THREAD_COUNTS`, :data:`VECTOR_WIDTHS`
    and :data:`COL_SPLITS`); widths outside the
    families the codegen can actually emit
    (:data:`EW_VECTOR_WIDTHS`, :data:`ROW_TILE_VECTOR_WIDTHS`) are
    dropped at construction — they are not grid points at all, so they
    neither count as enumerated nor charge the budget.
    """

    def __init__(self, device: DeviceProfile, thread_counts,
                 vector_widths, col_splits) -> None:
        self.device = device
        self.thread_counts = tuple(t for t in thread_counts if t >= 1)
        self.ew_widths = tuple(w for w in vector_widths
                               if w in EW_VECTOR_WIDTHS)
        self.row_widths = tuple(w for w in vector_widths
                                if w in ROW_TILE_VECTOR_WIDTHS)
        self.col_splits = tuple(s for s in col_splits if s >= 1)

    # -- static grid sizes (shape-independent; drive budget estimates) -----

    @property
    def elementwise_grid_size(self) -> int:
        return len(ELEMENTWISE_SCHEDULES) + len(self.ew_widths)

    @property
    def reduction_grid_size(self) -> int:
        return len(REDUCTION_SCHEDULES) + (len(self.thread_counts)
                                           * len(self.row_widths)
                                           * len(self.col_splits))

    # -- per-kernel walks --------------------------------------------------

    def elementwise_candidates(self, total_elements: int,
                               innermost: int) -> SpaceResult:
        """Walk + prune the flat-loop grid for one concrete domain."""
        pruned = dict.fromkeys(PRUNE_RULES, 0)
        cands: list[_Candidate] = []
        enumerated = 0
        for sched in ELEMENTWISE_SCHEDULES:
            enumerated += 1
            if sched.name == "vectorized4" and (innermost % 4 != 0
                                                or total_elements < 4):
                # Illegal for this shape (the dispatch stub never picks
                # it either); an enumerated-but-discarded grid point.
                pruned["misaligned"] += 1
                continue
            eff, par = sched.elementwise_profile(total_elements)
            cands.append(_Candidate(sched, eff, par, True))
        for width in self.ew_widths:
            enumerated += 1
            rule = self._prune_elementwise(width, total_elements,
                                           innermost)
            if rule is not None:
                pruned[rule] += 1
                continue
            sched = elementwise_vec(width)
            eff, par = sched.elementwise_profile(total_elements)
            cands.append(_Candidate(sched, eff, par, False))
        survivors = self._prune_dominated(cands, pruned)
        return SpaceResult(tuple(c.schedule for c in survivors),
                           enumerated, pruned)

    def _prune_elementwise(self, width: int, total: int,
                           innermost: int) -> str | None:
        if 4 * width > self.device.max_vector_bytes:
            return "vector_bytes"
        if width > 1 and (innermost % width != 0 or total < width):
            return "misaligned"
        return None

    def reduction_candidates(self, rows: int, cols: int) -> SpaceResult:
        """Walk + prune the row-tile grid for one concrete domain."""
        pruned = dict.fromkeys(PRUNE_RULES, 0)
        cands: list[_Candidate] = []
        enumerated = 0
        for sched in REDUCTION_SCHEDULES:
            enumerated += 1
            eff, par = sched.reduction_profile(rows, cols)
            cands.append(_Candidate(sched, eff, par, True))
        for threads in self.thread_counts:
            for width in self.row_widths:
                for split in self.col_splits:
                    enumerated += 1
                    rule = self._prune_row_tile(threads, width, split,
                                                rows, cols)
                    if rule is not None:
                        pruned[rule] += 1
                        continue
                    sched = row_tile(threads, width, split)
                    eff, par = sched.reduction_profile(rows, cols)
                    cands.append(_Candidate(sched, eff, par, False))
        # Occupancy floor: a tuned candidate exposing under half the
        # parallelism the problem supports (capped at saturation — more
        # buys nothing) cannot be competitive on a bandwidth-ramped
        # device; drop it before paying a cost-model evaluation.
        floor = 0.5 * min(rows * cols, self.device.saturation_elements)
        kept: list[_Candidate] = []
        for cand in cands:
            if not cand.generic and cand.parallel < floor:
                pruned["occupancy"] += 1
            else:
                kept.append(cand)
        survivors = self._prune_dominated(kept, pruned)
        return SpaceResult(tuple(c.schedule for c in survivors),
                           enumerated, pruned)

    def _prune_row_tile(self, threads: int, width: int, split: int,
                        rows: int, cols: int) -> str | None:
        device = self.device
        if threads > device.max_threads_per_block:
            return "threads"
        if 4 * width > device.max_vector_bytes:
            return "vector_bytes"
        if 2 * 4 * threads * width > device.smem_bytes_per_block:
            return "smem"
        if width > 1 and cols % width != 0:
            return "misaligned"
        if split > 1:
            if split > cols:
                return "split_excess"
            if rows * threads * width >= device.saturation_elements:
                return "split_unneeded"
        segment = -(-cols // split)
        if threads * width > 4 * segment:
            return "overshoot"
        return None

    @staticmethod
    def _prune_dominated(cands: list, pruned: dict) -> list:
        """Pareto-prune tuned candidates over (efficiency, parallelism,
        launches).  Generic variants are never pruned and win exact
        ties; a tuned candidate only dominates another when the two
        profiles actually differ (so identical tuned points cannot
        annihilate each other)."""
        kept: list[_Candidate] = []
        for cand in cands:
            if cand.generic:
                kept.append(cand)
                continue
            profile = (cand.efficiency, cand.parallel,
                       cand.schedule.extra_launches)
            dominated = False
            for other in cands:
                if other is cand:
                    continue
                other_profile = (other.efficiency, other.parallel,
                                 other.schedule.extra_launches)
                if other.efficiency >= cand.efficiency \
                        and other.parallel >= cand.parallel \
                        and other.schedule.extra_launches \
                        <= cand.schedule.extra_launches \
                        and (other.generic or other_profile != profile):
                    dominated = True
                    break
            if dominated:
                pruned["dominated"] += 1
            else:
                kept.append(cand)
        return kept
