"""Deadlines, shedding, retry-with-backoff, quarantine.

The invariant under test throughout: compile failures degrade service
(slower path, never a better one) but no request ever observes an error
— the only response statuses are OK, TIMEOUT and SHED, and every OK
response carries correct outputs.
"""

import pytest

from repro.device import A10
from repro.fuzz import CompileFaultInjector
from repro.runtime import ExecutionEngine
from repro.serving import CompileState, ResponseStatus

from ..conftest import toy_mlp_inputs
from .conftest import FAST_COMPILE, bit_identical, make_serving


# -- deadlines --------------------------------------------------------------

def test_deadline_expiry_mid_service(toy_exe, rng):
    scheduler, serving = make_serving(toy_exe, seed=2)
    inputs = toy_mlp_inputs(rng, 3, 5)
    ticket = serving.submit("mlp", inputs, deadline_us=100.0)
    scheduler.run_until_idle()
    response = ticket.response
    assert response.status is ResponseStatus.TIMEOUT
    assert response.latency_us == pytest.approx(100.0)
    assert response.outputs is None
    assert serving.counters["timeouts"] == 1
    # The server still finished the work and went on serving.
    assert serving.counters["ok"] == 0


def test_deadline_expiry_while_queued(toy_exe, rng):
    scheduler, serving = make_serving(toy_exe, seed=2)
    inputs = toy_mlp_inputs(rng, 3, 5)
    first = serving.submit("mlp", inputs)
    second = serving.submit("mlp", inputs, deadline_us=50.0)
    third = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    assert first.response.ok
    assert second.response.status is ResponseStatus.TIMEOUT
    assert third.response.ok


def test_completed_request_cancels_its_deadline_timer(toy_exe, rng):
    scheduler, serving = make_serving(toy_exe, seed=2)
    ticket = serving.submit("mlp", toy_mlp_inputs(rng, 3, 5),
                            deadline_us=1e9)
    scheduler.run_until_idle()
    assert ticket.response.ok
    assert serving.counters["timeouts"] == 0


# -- admission control ------------------------------------------------------

def test_queue_overflow_sheds(toy_exe, rng):
    scheduler, serving = make_serving(toy_exe, seed=2, queue_capacity=1)
    inputs = toy_mlp_inputs(rng, 3, 5)
    tickets = [serving.submit("mlp", inputs) for _ in range(4)]
    # First is in service, second waits, the rest are shed immediately.
    assert tickets[2].response.status is ResponseStatus.SHED
    assert tickets[3].response.status is ResponseStatus.SHED
    scheduler.run_until_idle()
    assert tickets[0].response.ok and tickets[1].response.ok
    assert serving.counters["shed"] == 2


def test_shedding_recovers_when_queue_drains(toy_exe, rng):
    scheduler, serving = make_serving(toy_exe, seed=2, queue_capacity=1)
    inputs = toy_mlp_inputs(rng, 3, 5)
    serving.submit("mlp", inputs)
    serving.submit("mlp", inputs)
    shed = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    retry = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    assert shed.response.status is ResponseStatus.SHED
    assert retry.response.ok


# -- compile faults ---------------------------------------------------------

def test_transient_failure_retries_with_backoff(toy_exe, rng):
    fault = CompileFaultInjector(transient_attempts=1)
    scheduler, serving = make_serving(toy_exe, seed=2,
                                      compile_fault=fault,
                                      compile_backoff_us=5_000.0)
    ticket = serving.submit("mlp", toy_mlp_inputs(rng, 3, 5))
    scheduler.run_until_idle()
    assert ticket.response.ok
    stats = serving.pool.stats
    assert stats.transient_failures == 1
    assert stats.compiles_succeeded == 1
    assert stats.quarantined == 0
    # attempt 1 ends at d; retry starts at d + backoff, ends at
    # 2d + backoff — exact virtual timestamps, no slop needed.
    duration = serving.model("mlp").compile_duration_us
    record = serving.pool.record(("mlp", ticket.request.signature))
    assert record.finished_at_us == 2 * duration + 5_000.0
    warm = serving.submit("mlp", toy_mlp_inputs(rng, 3, 5))
    scheduler.run_until_idle()
    assert warm.response.path == "fast"


def test_backoff_grows_exponentially(toy_exe, rng):
    fault = CompileFaultInjector(transient_attempts=2)
    scheduler, serving = make_serving(toy_exe, seed=2,
                                      compile_fault=fault,
                                      max_compile_retries=3,
                                      compile_backoff_us=1_000.0,
                                      backoff_multiplier=3.0)
    ticket = serving.submit("mlp", toy_mlp_inputs(rng, 3, 5))
    scheduler.run_until_idle()
    duration = serving.model("mlp").compile_duration_us
    record = serving.pool.record(("mlp", ticket.request.signature))
    # 3 attempts, backoffs of 1000 then 3000 between them.
    assert record.finished_at_us == 3 * duration + 1_000.0 + 3_000.0
    assert record.state is CompileState.READY


def test_permanent_failure_quarantines(toy_exe, rng):
    fault = CompileFaultInjector(permanent=True)
    scheduler, serving = make_serving(toy_exe, seed=2,
                                      compile_fault=fault)
    inputs = toy_mlp_inputs(rng, 3, 5)
    first = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    later = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    assert first.response.ok and first.response.path == "fallback"
    assert later.response.ok and later.response.path == "quarantined"
    assert serving.pool.stats.permanent_failures == 1
    assert serving.pool.stats.quarantined == 1
    # Quarantine means *no more compile attempts*, ever.
    assert serving.pool.stats.jobs_submitted == 1
    assert len(fault.calls) == 1
    expected, _ = ExecutionEngine(toy_exe, A10).run(inputs)
    assert bit_identical(expected, later.response.outputs)


def test_exhausted_retries_quarantine(toy_exe, rng):
    fault = CompileFaultInjector(transient_attempts=99)
    scheduler, serving = make_serving(toy_exe, seed=2,
                                      compile_fault=fault,
                                      max_compile_retries=2)
    ticket = serving.submit("mlp", toy_mlp_inputs(rng, 3, 5))
    scheduler.run_until_idle()
    assert ticket.response.ok
    stats = serving.pool.stats
    assert stats.transient_failures == 3  # initial try + 2 retries
    assert stats.quarantined == 1
    assert serving.compile_state(
        "mlp", ticket.request.signature) is CompileState.QUARANTINED


def test_quarantine_is_per_signature(toy_exe, rng):
    # Only the second distinct signature fails permanently.
    fault = CompileFaultInjector(permanent_every=2)
    scheduler, serving = make_serving(toy_exe, seed=2,
                                      compile_fault=fault)
    inputs_a = toy_mlp_inputs(rng, 3, 5)
    inputs_b = toy_mlp_inputs(rng, 4, 7)
    serving.submit("mlp", inputs_a)
    serving.submit("mlp", inputs_b)
    scheduler.run_until_idle()
    warm_a = serving.submit("mlp", inputs_a)
    warm_b = serving.submit("mlp", inputs_b)
    scheduler.run_until_idle()
    assert warm_a.response.path == "fast"
    assert warm_b.response.path == "quarantined"
    assert len(serving.quarantined_signatures()) == 1


# -- synchronous-compile baseline -------------------------------------------

def test_sync_mode_stalls_on_cold_signatures(toy_exe, rng):
    scheduler, serving = make_serving(toy_exe, seed=2,
                                      background_compile=False)
    inputs = toy_mlp_inputs(rng, 3, 5)
    cold = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    warm = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    duration = serving.model("mlp").compile_duration_us
    assert cold.response.path == "sync_compile"
    assert cold.response.latency_us >= duration
    assert warm.response.path == "fast"
    assert warm.response.latency_us < duration
    assert serving.counters["sync_compile_stalls"] == 1
    expected, _ = ExecutionEngine(toy_exe, A10).run(inputs)
    assert bit_identical(expected, cold.response.outputs)


def test_sync_mode_survives_permanent_faults(toy_exe, rng):
    fault = CompileFaultInjector(permanent=True)
    scheduler, serving = make_serving(toy_exe, seed=2,
                                      background_compile=False,
                                      compile_fault=fault)
    inputs = toy_mlp_inputs(rng, 3, 5)
    first = serving.submit("mlp", inputs)
    second = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    assert first.response.ok and first.response.path == "quarantined"
    assert second.response.ok and second.response.path == "quarantined"
    expected, _ = ExecutionEngine(toy_exe, A10).run(inputs)
    assert bit_identical(expected, first.response.outputs)


# -- faults that are not compile errors -------------------------------------

@pytest.mark.parametrize("background", [True, False])
def test_unknown_compile_exception_quarantines(toy_exe, rng, background):
    """An attempt that raises anything but a transient compile error is
    permanent in both compile modes: nothing escapes the scheduler, the
    key quarantines without a retry, and every request is answered OK
    and bit-identical to a direct run."""
    attempts = []

    def fault(model, signature, attempt):
        attempts.append(attempt)
        raise ValueError("injected non-compile fault")

    scheduler, serving = make_serving(toy_exe, seed=2, compile_fault=fault,
                                      background_compile=background)
    inputs = toy_mlp_inputs(rng, 3, 5)
    first = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    later = [serving.submit("mlp", inputs) for _ in range(2)]
    scheduler.run_until_idle()

    assert first.response.path == ("fallback" if background
                                   else "quarantined")
    assert [t.response.path for t in later] == ["quarantined"] * 2
    expected, _ = ExecutionEngine(toy_exe, A10).run(inputs)
    for ticket in [first] + later:
        assert ticket.response.ok
        assert bit_identical(expected, ticket.response.outputs)
    assert attempts == [0]
    stats = serving.pool.stats
    assert (stats.jobs_submitted, stats.permanent_failures,
            stats.transient_failures, stats.quarantined) == (1, 1, 0, 1)
    assert serving.quarantined_signatures() == {
        ("mlp", first.request.signature)}
    assert serving.counters["sync_compile_stalls"] == 0


def test_sync_mode_retries_under_the_pool_policy(toy_exe, rng):
    """The synchronous baseline retries exactly like a background job:
    each attempt stalls one compile duration, and exhausting the budget
    quarantines the key in the pool."""
    fault = CompileFaultInjector(transient_attempts=99)
    scheduler, serving = make_serving(toy_exe, seed=2, compile_fault=fault,
                                      background_compile=False,
                                      max_compile_retries=2)
    inputs = toy_mlp_inputs(rng, 3, 5)
    ticket = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    response = ticket.response
    assert response.ok and response.path == "quarantined"
    duration = serving.model("mlp").compile_duration_us
    assert response.latency_us == \
        3 * duration + response.stats.total_time_us
    assert [call[2] for call in fault.calls] == [0, 1, 2]
    assert serving.pool.stats.transient_failures == 3
    assert serving.compile_state(
        "mlp", ticket.request.signature) is CompileState.QUARANTINED
