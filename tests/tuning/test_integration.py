"""Tuned plans end to end: engine freezing, replay, and serving.

The tentpole claim is that search cost is paid once, in the background,
and replay is free: a tuned ``LaunchPlan`` carries the winners by name,
the fast path replays them with zero extra work, and every output is
bit-identical to the heuristic plan's.
"""

from __future__ import annotations

import pytest

from repro.core.codegen.schedules import schedule_named
from repro.device import A10
from repro.runtime import ExecutionEngine
from repro.serving import (ServingEngine, ServingOptions,
                           SignatureCompileCost, VirtualScheduler)
from repro.tuning import ScheduleTuner, TuningOptions

FAST_COMPILE = SignatureCompileCost(fixed_us=10_000.0, per_kernel_us=100.0)


def tune_and_prepare(exe, inputs, budget_us=250_000.0):
    engine = ExecutionEngine(exe, A10)
    signature = engine.host_program.signature(inputs)
    result = ScheduleTuner(A10, TuningOptions(budget_us=budget_us)).tune(
        exe, signature)
    plan = engine.prepare(inputs, signature, selector=result.selector(),
                          overwrite=True)
    return engine, signature, result, plan


# -- engine-level freezing --------------------------------------------------


def test_prepare_with_selector_freezes_a_tuned_plan(toy_exe, toy_inputs):
    engine, signature, result, plan = tune_and_prepare(toy_exe,
                                                       toy_inputs)
    assert plan.tuned
    assert engine.peek_plan(signature) is plan
    for kernel, pick in result.pick_names().items():
        assert plan.stats.details["schedules"][kernel] == pick


def test_heuristic_plans_are_not_marked_tuned(toy_exe, toy_inputs):
    engine = ExecutionEngine(toy_exe, A10)
    plan = engine.prepare(toy_inputs)
    assert not plan.tuned
    assert plan.stats.details["schedules"], "plans must record schedule picks by name"


def test_overwrite_upgrades_an_installed_plan(toy_exe, toy_inputs):
    """The serving runtime compiles heuristic first and tunes in the
    background; the tuned prepare must replace the installed plan."""
    engine = ExecutionEngine(toy_exe, A10)
    signature = engine.host_program.signature(toy_inputs)
    heuristic = engine.prepare(toy_inputs, signature)
    result = ScheduleTuner(A10).tune(toy_exe, signature)
    tuned = engine.prepare(toy_inputs, signature,
                           selector=result.selector(), overwrite=True)
    assert engine.peek_plan(signature) is tuned
    assert tuned is not heuristic and tuned.tuned


def test_run_stats_surface_the_chosen_schedule_names(toy_exe,
                                                     toy_inputs):
    engine, signature, result, plan = tune_and_prepare(toy_exe,
                                                       toy_inputs)
    _, stats = engine.run(toy_inputs)
    schedules = stats.details["schedules"]
    assert schedules == plan.stats.details["schedules"]
    for name in schedules.values():
        schedule_named(name)  # every surfaced name round-trips


def test_tuned_replay_is_bit_identical_and_never_slower(toy_exe,
                                                        toy_inputs):
    reference = ExecutionEngine(toy_exe, A10)
    expected, heuristic_stats = reference.run(toy_inputs)
    engine, _, result, _ = tune_and_prepare(toy_exe, toy_inputs)
    outputs, tuned_stats = engine.run(toy_inputs)
    for ref, got in zip(expected, outputs):
        assert ref.shape == got.shape and ref.dtype == got.dtype
        assert ref.tobytes() == got.tobytes(), \
            "a schedule choice changed numerics"
    assert tuned_stats.device_time_us \
        <= heuristic_stats.device_time_us * (1 + 1e-12)
    assert result.tuned_time_us <= result.heuristic_time_us


def test_replay_pays_no_search_cost(toy_exe, toy_inputs):
    """Warm runs of a tuned plan replay frozen picks — the second run
    charges exactly what the first charged, search nowhere in sight."""
    engine, _, _, _ = tune_and_prepare(toy_exe, toy_inputs)
    _, first = engine.run(toy_inputs)
    _, second = engine.run(toy_inputs)
    assert second.device_time_us == first.device_time_us
    assert second.details["schedules"] == first.details["schedules"]


# -- serving: background search under the virtual clock ---------------------


def make_serving(exe, tuning=None, seed=0):
    scheduler = VirtualScheduler(seed=seed)
    engine = ServingEngine(
        A10, scheduler,
        ServingOptions(compile_cost=FAST_COMPILE, tuning=tuning))
    engine.register_model("mlp", exe)
    return scheduler, engine


def test_background_compile_installs_a_tuned_plan(toy_exe, toy_inputs):
    scheduler, serving = make_serving(
        toy_exe, tuning=TuningOptions(budget_us=250_000.0))
    cold = serving.submit("mlp", toy_inputs)
    scheduler.run_until_idle()
    warm = serving.submit("mlp", toy_inputs)
    scheduler.run_until_idle()
    assert cold.response.ok and cold.response.path == "fallback"
    assert warm.response.ok and warm.response.path == "fast"
    assert serving.counters["tuned_signatures"] == 1
    assert serving.counters["tuned_served"] == 1
    plan = serving.model("mlp").engine.peek_plan(
        cold.request.signature)
    assert plan is not None and plan.tuned


def test_tuning_rides_the_compile_job_duration(toy_exe, toy_inputs):
    """The background job's duration is compile time plus the *bounded*
    search time — min(budget, static estimate) — asserted by probing
    the virtual clock just before and just after the job must land."""
    budget = TuningOptions(budget_us=250_000.0)
    scheduler, serving = make_serving(toy_exe, tuning=budget)
    entry = serving.model("mlp")
    estimate = serving.tuner.estimate_cost_us(toy_exe)
    assert entry.tuning_duration_us == min(budget.budget_us, estimate)
    duration = entry.compile_duration_us + entry.tuning_duration_us

    probes = {}
    signature = entry.engine.host_program.signature(toy_inputs)
    scheduler.call_at(0.0, lambda: serving.submit("mlp", toy_inputs))
    scheduler.call_at(duration - 1.0, lambda: probes.update(
        before=entry.engine.peek_plan(signature)))
    scheduler.call_at(duration + 1.0, lambda: probes.update(
        after=entry.engine.peek_plan(signature)))
    scheduler.run_until_idle()
    assert probes["before"] is None, \
        "plan landed before compile+tuning time elapsed"
    assert probes["after"] is not None and probes["after"].tuned


def test_starved_budget_is_honoured_and_counted(toy_exe, toy_inputs):
    """A starvation budget still yields a plan (heuristic picks), the
    job is sized by the budget rather than the estimate, and the
    exhaustion is counted."""
    starved = TuningOptions(budget_us=100.0)
    scheduler, serving = make_serving(toy_exe, tuning=starved)
    entry = serving.model("mlp")
    assert entry.tuning_duration_us == 100.0
    serving.submit("mlp", toy_inputs)
    scheduler.run_until_idle()
    warm = serving.submit("mlp", toy_inputs)
    scheduler.run_until_idle()
    assert serving.counters["tuning_budget_exhausted"] == 1
    assert serving.tuning_totals["spent_us"] <= 100.0
    assert warm.response.ok and warm.response.path == "fast"


def test_stats_expose_the_tuning_block(toy_exe, toy_inputs):
    scheduler, serving = make_serving(
        toy_exe, tuning=TuningOptions(budget_us=250_000.0))
    serving.submit("mlp", toy_inputs)
    scheduler.run_until_idle()
    serving.submit("mlp", toy_inputs)
    scheduler.run_until_idle()
    stats = serving.stats()
    requests, block = stats["requests"], stats["tuning"]
    assert requests["tuned_signatures"] == 1
    assert requests["tuned_served"] == 1
    assert requests["tuning_faults"] == 0
    assert block["spent_us"] <= block["budget_us"]
    assert block["enumerated"] >= block["scored"] + block["pruned"]
    assert block["kernels"] >= 1


def test_tuning_disabled_leaves_serving_untouched(toy_exe, toy_inputs):
    scheduler, serving = make_serving(toy_exe, tuning=None)
    assert serving.tuner is None
    serving.submit("mlp", toy_inputs)
    scheduler.run_until_idle()
    warm = serving.submit("mlp", toy_inputs)
    scheduler.run_until_idle()
    assert warm.response.ok and warm.response.path == "fast"
    assert serving.counters["tuned_signatures"] == 0
    assert "tuning" not in serving.stats()
    plan = serving.model("mlp").engine.peek_plan(
        warm.request.signature)
    assert plan is not None and not plan.tuned


def test_sync_compile_path_stays_heuristic(toy_exe, toy_inputs):
    """Foreground (sync) compiles must not pay search cost — tuning is
    a background-pool concern only."""
    scheduler = VirtualScheduler(seed=0)
    serving = ServingEngine(
        A10, scheduler,
        ServingOptions(compile_cost=FAST_COMPILE,
                       background_compile=False,
                       tuning=TuningOptions(budget_us=250_000.0)))
    serving.register_model("mlp", toy_exe)
    ticket = serving.submit("mlp", toy_inputs)
    scheduler.run_until_idle()
    assert ticket.response.ok
    assert ticket.response.path == "sync_compile"
    plan = serving.model("mlp").engine.peek_plan(
        ticket.request.signature)
    assert plan is not None and not plan.tuned


def test_two_signatures_tune_independently(toy_exe):
    import numpy as np

    from ..conftest import toy_mlp_inputs

    rng = np.random.default_rng(1)
    small = toy_mlp_inputs(rng, batch=2, seq=4)
    large = toy_mlp_inputs(rng, batch=16, seq=32)
    scheduler, serving = make_serving(
        toy_exe, tuning=TuningOptions(budget_us=250_000.0))
    serving.submit("mlp", small)
    serving.submit("mlp", large)
    scheduler.run_until_idle()
    assert serving.counters["tuned_signatures"] == 2
    engine = serving.model("mlp").engine
    for inputs in (small, large):
        signature = engine.host_program.signature(inputs)
        plan = engine.peek_plan(signature)
        assert plan is not None and plan.tuned
