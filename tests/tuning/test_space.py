"""The strategy space: grid enumeration and hardware-aware pruning.

Every pruning rule gets a shape (or a device limit) constructed to
trigger exactly it, and the structural guarantees the tuner leans on —
generics always survive, enumeration counts are shape-independent,
walks are deterministic — are pinned here.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.codegen.schedules import (ELEMENTWISE_SCHEDULES,
                                          REDUCTION_SCHEDULES)
from repro.device import A10
from repro.tuning import PRUNE_RULES, StrategySpace
from repro.tuning.space import COL_SPLITS, THREAD_COUNTS, VECTOR_WIDTHS


def make_space(device, thread_counts=THREAD_COUNTS,
               vector_widths=VECTOR_WIDTHS, col_splits=COL_SPLITS):
    """A space over the tuner's grids, as the tuner builds it, with
    some of them overridden."""
    return StrategySpace(device, thread_counts, vector_widths, col_splits)


def names(result):
    return [s.name for s in result.candidates]


def generic_reduction_names():
    return {s.name for s in REDUCTION_SCHEDULES}


# -- enumeration bookkeeping -----------------------------------------------


def test_grid_sizes_are_shape_independent():
    space = make_space(A10)
    assert space.elementwise_grid_size == len(ELEMENTWISE_SCHEDULES) \
        + len(space.ew_widths)
    assert space.reduction_grid_size == len(REDUCTION_SCHEDULES) \
        + len(space.thread_counts) * len(space.row_widths) \
        * len(space.col_splits)
    for rows, cols in ((4, 64), (4096, 4096), (1, 1)):
        result = space.reduction_candidates(rows, cols)
        assert result.enumerated == space.reduction_grid_size
        assert len(result.candidates) + result.pruned_total \
            == result.enumerated


def test_unsupported_widths_are_not_grid_points():
    """A width codegen cannot emit is dropped at construction, not
    enumerated-then-pruned — it must not charge the budget."""
    space = make_space(A10, vector_widths=(1, 2, 3, 4, 7, 8, 16))
    assert 3 not in space.ew_widths and 16 not in space.ew_widths
    assert space.row_widths == (1, 2, 4)  # no row tile family at 8
    assert 8 in space.ew_widths


def test_walks_are_deterministic():
    space = make_space(A10)
    first = space.reduction_candidates(64, 1024)
    second = space.reduction_candidates(64, 1024)
    assert names(first) == names(second)
    assert first.pruned == second.pruned


# -- the generic-variant guarantee -----------------------------------------


def test_generic_reduction_variants_always_survive():
    space = make_space(A10)
    for rows, cols in ((1, 1), (2, 3), (4096, 8192), (7, 997)):
        survivors = set(names(space.reduction_candidates(rows, cols)))
        assert generic_reduction_names() <= survivors


def test_empty_tuned_grid_degrades_to_generics():
    """With the whole tuned grid pruned away (prime cols kill every
    width>1, tiny extents kill the rest via overshoot/occupancy), the
    candidate set is exactly the generic dispatch set."""
    space = make_space(A10, thread_counts=(1024,),
                       vector_widths=(2, 4), col_splits=(1,))
    result = space.reduction_candidates(1, 7)
    assert set(names(result)) == generic_reduction_names()


def test_flat_pruned_only_when_vectorized4_legal():
    """Generic elementwise variants survive except the one documented
    carve-out: vectorized4 on a misaligned innermost is dropped under
    ``misaligned`` (the dispatch stub never picks it either)."""
    space = make_space(A10)
    aligned = space.elementwise_candidates(1024, 64)
    misaligned = space.elementwise_candidates(1023, 31)
    assert "vectorized4" in names(aligned)
    assert "vectorized4" not in names(misaligned)
    assert misaligned.pruned["misaligned"] >= 1
    assert "flat" in names(misaligned)


# -- one shape per pruning rule --------------------------------------------


def test_prune_threads_against_device_limit():
    space = make_space(A10, thread_counts=(2048,), vector_widths=(1,),
                       col_splits=(1,))
    result = space.reduction_candidates(64, 8192)
    assert result.pruned["threads"] == 1
    assert set(names(result)) == generic_reduction_names()


def test_prune_vector_bytes_against_device_limit():
    narrow = dataclasses.replace(A10, max_vector_bytes=8)
    space = make_space(narrow, thread_counts=(256,),
                       vector_widths=(4,), col_splits=(1,))
    result = space.reduction_candidates(64, 8192)
    assert result.pruned["vector_bytes"] == 1
    ew = space.elementwise_candidates(1024, 64)
    assert "ew_vec4" not in names(ew)
    assert ew.pruned["vector_bytes"] >= 1


def test_prune_smem_staging_overflow():
    tiny_smem = dataclasses.replace(A10, smem_bytes_per_block=4096)
    space = make_space(tiny_smem, thread_counts=(1024,),
                       vector_widths=(1, 2), col_splits=(1,))
    result = space.reduction_candidates(64, 8192)
    # 2*4*1024*1 = 8192 > 4096 and 2*4*1024*2 = 16384 > 4096.
    assert result.pruned["smem"] == 2


def test_prune_misaligned_row_width():
    space = make_space(A10, thread_counts=(32,), vector_widths=(2, 4),
                       col_splits=(1,))
    result = space.reduction_candidates(4096, 126)  # 126 % 4 != 0
    assert result.pruned["misaligned"] == 1  # width 4 only
    assert any(name.startswith("row_tile_t32v2") for name in names(result))


def test_prune_split_excess():
    space = make_space(A10, thread_counts=(32,), vector_widths=(1,),
                       col_splits=(1, 32))
    result = space.reduction_candidates(2048, 16)
    assert result.pruned["split_excess"] == 1  # split 32 > 16 cols


def test_prune_split_unneeded_at_saturation():
    space = make_space(A10, thread_counts=(256,), vector_widths=(1,),
                       col_splits=(1, 2))
    rows = A10.saturation_elements // 256 + 1
    result = space.reduction_candidates(rows, 8192)
    assert result.pruned["split_unneeded"] == 1


def test_prune_overshoot_on_short_rows():
    space = make_space(A10, thread_counts=(1024,), vector_widths=(1,),
                       col_splits=(1,))
    result = space.reduction_candidates(1 << 20, 8)
    # 1024 lanes over an 8-column row is >4x overshoot.
    assert result.pruned["overshoot"] == 1


def test_prune_occupancy_floor():
    space = make_space(A10, thread_counts=(32,), vector_widths=(1,),
                       col_splits=(1,))
    result = space.reduction_candidates(4, 8192)
    # 4 rows * 32 lanes = 128 exposed, problem supports 32768: pruned.
    assert result.pruned["occupancy"] == 1


def test_prune_dominated_keeps_pareto_front():
    space = make_space(A10)
    result = space.reduction_candidates(64, 8192)
    assert result.pruned["dominated"] > 0
    # No surviving tuned candidate may dominate another survivor.
    tuned = [s for s in result.candidates if s.tuned]
    profiles = [(s, *s.reduction_profile(64, 8192)) for s in tuned]
    for sched, eff, par in profiles:
        for other, oeff, opar in profiles:
            if other is sched:
                continue
            assert not (oeff >= eff and opar >= par
                        and other.extra_launches <= sched.extra_launches
                        and (oeff, opar, other.extra_launches)
                        != (eff, par, sched.extra_launches)), \
                f"{sched.name} survived but {other.name} dominates it"


def test_identical_tuned_profiles_do_not_annihilate():
    """Two tuned grid points with byte-identical profiles must not prune
    each other (the dominance check requires a strict difference)."""
    space = make_space(A10, thread_counts=(64,), vector_widths=(1,),
                       col_splits=(1,))
    result = space.reduction_candidates(4096, 64)
    assert any(s.name == "row_tile_t64v1" for s in result.candidates)


def test_prune_counts_cover_declared_rules_only():
    space = make_space(A10)
    result = space.reduction_candidates(512, 2048)
    assert set(result.pruned) == set(PRUNE_RULES)


@pytest.mark.parametrize("rows,cols", [(1, 1), (3, 5), (64, 1024),
                                       (4096, 64), (17, 4096)])
def test_survivor_order_is_generics_first(rows, cols):
    result = make_space(A10).reduction_candidates(rows, cols)
    seen_tuned = False
    for sched in result.candidates:
        if sched.tuned:
            seen_tuned = True
        else:
            assert not seen_tuned, "generic variant after a tuned one"
