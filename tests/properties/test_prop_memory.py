"""Buffer-planner properties over random interval sets."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import check_buffer_plan
from repro.runtime.memory import BufferPlan, best_fit

from ..strategies import interval_sets


@given(interval_sets)
@settings(max_examples=200)
def test_no_overlapping_intervals_share_a_slot(intervals):
    plan = BufferPlan(intervals)
    assert check_buffer_plan(plan).by_code("L301") == []


@given(interval_sets)
@settings(max_examples=200)
def test_peak_never_exceeds_naive(intervals):
    plan = BufferPlan(intervals)
    stats = plan.evaluate({})
    assert stats["peak_bytes"] <= stats["naive_bytes"]
    assert stats["slots"] <= max(1, len(intervals)) or not intervals


@given(interval_sets)
@settings(max_examples=200)
def test_peak_lower_bound_is_max_concurrent_usage(intervals):
    """At any time step, the sum of live values' sizes is a lower bound
    on the reused peak (each live value must reside somewhere)."""
    plan = BufferPlan(intervals)
    stats = plan.evaluate({})
    for t in range(0, 75):
        live = sum(iv.bytes_at({}) for iv in intervals
                   if iv.start <= t <= iv.end)
        assert stats["peak_bytes"] >= live


@given(interval_sets)
@settings(max_examples=100)
def test_slot_count_matches_max_concurrency(intervals):
    """Greedy colouring of an interval graph uses exactly the maximum
    number of simultaneously-live intervals (interval graphs are
    perfect)."""
    plan = BufferPlan(intervals)
    max_live = 0
    for t in range(0, 75):
        live = sum(1 for iv in intervals if iv.start <= t <= iv.end)
        max_live = max(max_live, live)
    assert plan.num_slots == max_live


@given(interval_sets, st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=200)
def test_best_fit_keeps_slots_disjoint_in_any_order(intervals, rng,
                                                     columns):
    """Whatever the visit order and however many size columns, no slot
    holds two overlapping live ranges, and each slot's extent is the
    per-column max of its occupants."""
    order = list(range(len(intervals)))
    rng.shuffle(order)
    sizes = [tuple(rng.randrange(1, 64) for _ in range(columns))
             for _ in intervals]
    assign, extents = best_fit(intervals, sizes, order)
    for i, a in enumerate(intervals):
        for j in range(i):
            b = intervals[j]
            if assign[i] == assign[j]:
                assert a.end < b.start or b.end < a.start
    for slot, extent in enumerate(extents):
        members = [sizes[i] for i in range(len(intervals))
                   if assign[i] == slot]
        assert members
        assert extent == [max(column) for column in zip(*members)]
