"""Compile once, serve every shape: the default ``compile_cost=None``.

The executable is shape-generic, so a cold signature is served on it at
once: its first run records, freezes and installs the heuristic launch
plan, and is charged exactly what a direct ``ExecutionEngine`` run
charges.  The background pool only tunes, and a key it quarantines
loses its tuning, never its fast path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import compile_graph
from repro.device import A10
from repro.fuzz import CompileFaultInjector, make_inputs
from repro.fuzz.sampler import binding_suite
from repro.runtime import EngineOptions, ExecutionEngine
from repro.serving import (CompileState, ResponseStatus, ServingEngine,
                           ServingOptions, VirtualScheduler)
from repro.tuning import TuningOptions

from ..conftest import toy_mlp_inputs
from ..strategies import fuzz_graphs
from .conftest import bit_identical, make_serving

TUNING = TuningOptions(budget_us=250_000.0)


def test_cold_response_equals_a_direct_run(toy_exe, rng):
    scheduler, serving = make_serving(toy_exe, seed=1, compile_cost=None)
    inputs = toy_mlp_inputs(rng, 3, 5)
    ticket = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    response = ticket.response
    assert response.ok and response.path == "fast"
    expected, direct = ExecutionEngine(toy_exe, A10).run(inputs)
    assert bit_identical(expected, response.outputs)
    assert response.stats == direct
    assert response.latency_us == direct.total_time_us
    assert serving.model("mlp").engine.peek_plan(
        ticket.request.signature) is not None
    assert serving.counters["fast_served"] == 1
    assert serving.counters["fallback_served"] == 0


def test_no_tuner_runs_no_pool_job(toy_exe, rng):
    scheduler, serving = make_serving(toy_exe, seed=1, compile_cost=None)
    for batch, seq in ((3, 5), (4, 6), (3, 5)):
        serving.submit("mlp", toy_mlp_inputs(rng, batch, seq))
    scheduler.run_until_idle()
    assert [r.path for r in serving.completed] == ["fast"] * 3
    assert serving.pool.stats.jobs_submitted == 0
    assert serving.model("mlp").compile_duration_us == 0.0


def test_tuning_job_lasts_the_tuning_time_then_replays_tuned(toy_exe,
                                                             rng):
    scheduler, serving = make_serving(toy_exe, seed=1, compile_cost=None,
                                      tuning=TUNING)
    entry = serving.model("mlp")
    duration = entry.tuning_duration_us
    assert duration > 0 and entry.compile_duration_us == 0.0
    inputs = toy_mlp_inputs(rng, 3, 5)
    signature = entry.engine.host_program.signature(inputs)
    probes = {}
    scheduler.call_at(0.0, lambda: serving.submit("mlp", inputs))
    scheduler.call_at(duration - 1.0, lambda: probes.update(
        before=entry.engine.peek_plan(signature)))
    scheduler.call_at(duration + 1.0, lambda: probes.update(
        after=entry.engine.peek_plan(signature)))
    scheduler.run_until_idle()
    assert probes["before"] is not None and not probes["before"].tuned
    assert probes["after"] is not None and probes["after"].tuned
    record = serving.pool.record(("mlp", signature))
    assert record.finished_at_us == duration
    assert serving.pool.stats.jobs_submitted == 1

    warm = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    assert warm.response.path == "fast"
    assert serving.counters["tuned_served"] == 1
    expected, _ = ExecutionEngine(toy_exe, A10).run(inputs)
    assert bit_identical(expected, warm.response.outputs)


def test_quarantined_tuning_never_pins_the_fallback(toy_exe, rng):
    fault = CompileFaultInjector(permanent=True)
    scheduler, serving = make_serving(
        toy_exe, seed=1, compile_fault=fault, compile_cost=None,
        tuning=TUNING, engine=EngineOptions(plan_capacity=1))
    first, second = toy_mlp_inputs(rng, 3, 5), toy_mlp_inputs(rng, 4, 6)
    tickets = []
    # Alternate two signatures through a one-plan cache: every request
    # after the first finds its plan evicted.
    for index, inputs in enumerate((first, second) * 3):
        scheduler.call_at(1e7 * index, lambda i=inputs: tickets.append(
            (i, serving.submit("mlp", i))))
    scheduler.run_until_idle()
    signature = tickets[0][1].request.signature
    assert serving.compile_state("mlp", signature) \
        is CompileState.QUARANTINED
    assert serving.pool.stats.quarantined == 2
    reference = ExecutionEngine(toy_exe, A10)
    for inputs, ticket in tickets:
        assert ticket.response.ok and ticket.response.path == "fast"
        assert bit_identical(reference.run(inputs)[0],
                             ticket.response.outputs)
    assert serving.counters["quarantine_served"] == 0
    assert serving.counters["fallback_served"] == 0


def test_sync_compile_needs_a_per_shape_cost():
    with pytest.raises(ValueError, match="compile_cost"):
        ServingOptions(background_compile=False)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=fuzz_graphs(max_nodes=10),
       seed=st.integers(min_value=0, max_value=2**16),
       tune=st.booleans(),
       permanent_every=st.sampled_from([None, 2]))
def test_every_request_gets_one_bit_identical_response(
        graph, seed, tune, permanent_every):
    executable = compile_graph(graph)
    reference = ExecutionEngine(executable, A10)
    scheduler = VirtualScheduler(seed=seed)
    serving = ServingEngine(
        A10, scheduler,
        ServingOptions(compile_workers=1 + seed % 2,
                       tuning=TuningOptions(budget_us=2_000.0)
                       if tune else None,
                       engine=EngineOptions(plan_capacity=1 + seed % 2)),
        compile_fault=CompileFaultInjector(
            transient_attempts=seed % 2, permanent_every=permanent_every))
    serving.register_model("m", executable)

    cases = [make_inputs(graph, bindings, seed=7)
             for bindings in binding_suite(graph, limit=3)]
    tickets = []
    for index, inputs in enumerate(cases * 2):
        scheduler.call_at(float(index % 3), lambda i=inputs: tickets.append(
            (i, serving.submit("m", i))))
    scheduler.run_until_idle()

    assert len(tickets) == 2 * len(cases)
    assert len(serving.completed) == len(tickets)
    assert sorted(r.request_id for r in serving.completed) == \
        sorted(t.request.id for _, t in tickets)
    for inputs, ticket in tickets:
        response = ticket.response
        assert response.status is ResponseStatus.OK
        assert response.path == "fast"
        expected, _ = reference.run(inputs)
        assert bit_identical(expected, response.outputs)
