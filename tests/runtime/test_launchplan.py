"""Launch plans: freezing, replay stats, and the bounded LRU cache."""

import numpy as np
import pytest

from repro.core import compile_graph
from repro.device import A10
from repro.device.counters import RunStats
from repro.runtime import (EngineOptions, ExecutionEngine, LaunchPlan,
                           LaunchPlanCache, format_signature)

from ..conftest import toy_mlp_graph, toy_mlp_inputs


@pytest.fixture(scope="module")
def exe():
    return compile_graph(toy_mlp_graph().graph)


# -- the plan itself ---------------------------------------------------------

def test_format_signature():
    sig = (("x", (2, 3)), ("w", (4,)))
    assert format_signature(sig) == "x[2x3], w[4]"


def test_freeze_and_make_stats_round_trip():
    stats = RunStats(device_time_us=12.5, host_time_us=3.25,
                     kernels_launched=7, bytes_read=100, bytes_written=40,
                     flops=9e6)
    stats.details["memory"] = {"peak_bytes": 4096}
    plan = LaunchPlan.freeze((("x", (2, 3)),), {"b": 2}, stats)
    replay = plan.make_stats()
    assert replay == stats
    assert replay.cache_hit and replay.compile_time_us == 0
    # each replay gets its own details dict; mutating one leaks nowhere
    replay.details["memory"]["peak_bytes"] = 0
    assert plan.make_stats().details["memory"]["peak_bytes"] == 4096


def test_freeze_copies_the_memory_dict():
    stats = RunStats()
    stats.details["memory"] = {"peak_bytes": 1}
    plan = LaunchPlan.freeze((), {}, stats)
    stats.details["memory"]["peak_bytes"] = 2
    assert plan.stats.details["memory"] == {"peak_bytes": 1}


def test_replay_keeps_every_field_of_the_frozen_stats():
    stats = RunStats(device_time_us=8.5, host_time_us=1.5,
                     compile_time_us=3.0, kernels_launched=4,
                     bytes_read=64, bytes_written=32, flops=2e3,
                     padding_waste_bytes=96)
    stats.details["memory"] = {"peak_bytes": 512}
    stats.details["batch"] = {"size": 4, "padded_signature": "x[4x8]"}
    plan = LaunchPlan.freeze((("x", (4, 4, 8)),), {"b": 4}, stats)
    first, second = plan.make_stats(), plan.make_stats()
    assert first == second == stats
    assert first.padding_waste_bytes == 96
    for key in ("memory", "batch"):
        assert first.details[key] is not second.details[key]
        assert first.details[key] is not plan.stats.details[key]
    first.details["batch"]["size"] = 0
    assert second.details["batch"]["size"] == 4
    assert plan.make_stats() == stats


# -- the cache ---------------------------------------------------------------

def plan_for(key):
    return LaunchPlan.freeze(key, {}, RunStats())


def test_hit_miss_accounting():
    cache = LaunchPlanCache()
    assert cache.get("a") is None
    cache.put("a", plan_for("a"))
    assert cache.get("a") is not None
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.stats()["hit_rate"] == 0.5


def test_eviction_is_lru_not_fifo():
    cache = LaunchPlanCache(capacity=2)
    cache.put("a", plan_for("a"))
    cache.put("b", plan_for("b"))
    cache.get("a")                 # refresh "a": now "b" is the LRU
    cache.put("c", plan_for("c"))  # evicts "b", not insertion-order "a"
    assert "a" in cache and "c" in cache
    assert "b" not in cache
    assert cache.evictions == 1


def test_peek_touches_neither_stats_nor_recency():
    cache = LaunchPlanCache(capacity=2)
    cache.put("a", plan_for("a"))
    cache.put("b", plan_for("b"))
    assert cache.peek("a") is not None
    assert (cache.hits, cache.misses) == (0, 0)
    cache.put("c", plan_for("c"))  # "a" was only peeked: still the LRU
    assert "a" not in cache


def test_unbounded_cache_never_evicts():
    cache = LaunchPlanCache(capacity=None)
    for key in range(100):
        cache.put(key, plan_for(key))
    assert len(cache) == 100 and cache.evictions == 0


# -- engine integration ------------------------------------------------------

def test_first_call_records_then_replays(exe, rng):
    engine = ExecutionEngine(exe, A10)
    inputs = toy_mlp_inputs(rng, 3, 5)
    (cold_out,), cold = engine.run(inputs)
    assert engine.plans.stats()["misses"] == 1
    (warm_out,), warm = engine.run(inputs)
    assert engine.plans.stats()["hits"] == 1
    assert np.array_equal(cold_out, warm_out)
    assert warm == cold
    sig = exe.host_program.signature(inputs)
    assert engine.peek_plan(sig) is not None
    assert engine.peek_plan(sig).stats.kernels_launched == \
        cold.kernels_launched


def test_distinct_signatures_get_distinct_plans(exe, rng):
    engine = ExecutionEngine(exe, A10)
    engine.run(toy_mlp_inputs(rng, 2, 5))
    engine.run(toy_mlp_inputs(rng, 3, 7))
    stats = engine.plans.stats()
    assert stats["entries"] == 2
    assert stats["misses"] == 2 and stats["hits"] == 0


def test_capacity_evicts_and_rerecords_identically(exe, rng):
    engine = ExecutionEngine(exe, A10, EngineOptions(plan_capacity=1))
    a = toy_mlp_inputs(rng, 2, 5)
    b = toy_mlp_inputs(rng, 3, 7)
    __, first = engine.run(a)
    engine.run(b)                  # evicts a's plan
    __, again = engine.run(a)      # re-records from scratch
    assert engine.plans.stats()["evictions"] == 2
    assert engine.plans.stats()["misses"] == 3
    assert again == first


# -- background preparation (serving's compile entry point) ------------------

def test_prepare_freezes_the_same_plan_a_first_call_would(exe, rng):
    inputs = toy_mlp_inputs(rng, 3, 5)
    sig = exe.host_program.signature(inputs)

    prepared_engine = ExecutionEngine(exe, A10)
    prepared = prepared_engine.prepare(inputs)

    recorded_engine = ExecutionEngine(exe, A10)
    _, recorded_stats = recorded_engine.run(inputs)
    recorded = recorded_engine.peek_plan(sig)

    assert prepared.signature == recorded.signature == sig
    assert prepared.dims == recorded.dims
    assert prepared.stats == recorded.stats
    assert prepared.make_stats() == recorded_stats


def test_run_after_prepare_is_a_warm_replay(exe, rng):
    inputs = toy_mlp_inputs(rng, 3, 5)
    engine = ExecutionEngine(exe, A10)
    engine.prepare(inputs)
    outputs, stats = engine.run(inputs)
    assert engine.plans.stats()["hits"] == 1
    assert engine.plans.stats()["misses"] == 0
    direct_outputs, direct_stats = ExecutionEngine(exe, A10).run(inputs)
    assert stats == direct_stats
    for a, b in zip(outputs, direct_outputs):
        assert a.tobytes() == b.tobytes()


def test_prepare_is_idempotent(exe, rng):
    inputs = toy_mlp_inputs(rng, 3, 5)
    engine = ExecutionEngine(exe, A10)
    first = engine.prepare(inputs)
    second = engine.prepare(inputs)
    assert second is first
    assert engine.plans.stats()["entries"] == 1


def test_solo_and_batched_plans_never_collide(exe, rng):
    """A batched plan whose padded member signature is a solo plan's
    signature sits next to it in the one cache, under its own key."""
    engine = ExecutionEngine(exe, A10)
    inputs = toy_mlp_inputs(rng, 3, 5)
    signature = engine.host_program.signature(inputs)
    solo = engine.prepare(inputs)
    batched = engine.prepare_batched(signature, 1)
    assert len(engine.plans) == 2
    assert engine.peek_plan(signature) is solo
    assert "batch" not in solo.stats.details
    assert batched.stats.details["batch"] == {
        "size": 1, "padded_signature": format_signature(signature)}
    assert engine.peek_batched(signature, 1) is batched
    __, stats = engine.run(inputs)
    assert stats == solo.make_stats()
    assert (engine.plans.hits, engine.plans.misses) == (1, 0)
    assert engine.peek_batched(signature, 1) is batched
    assert len(engine.plans) == 2
