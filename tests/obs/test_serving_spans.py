"""Serving traces under the virtual clock: exact sequences, exact times.

Every test drives a ``ServingEngine`` on a ``VirtualScheduler`` with the
tracer on the scheduler's clock, so the asserted span sequences and
timestamps are deterministic properties of the schedule — rerunning
cannot change a single number.
"""

from repro.fuzz import CompileFaultInjector
from repro.obs import check_balanced, check_containment
from repro.serving import CompileState

from ..conftest import toy_mlp_inputs
from .conftest import make_traced_serving


def lifecycle(tracer) -> list[str]:
    """Creation-order names with the noisy kernel:* spans filtered."""
    return [name for name in tracer.sequence()
            if not name.startswith("kernel:")]


def test_cold_fallback_compile_warm_handoff_exact_sequence(toy_exe, rng):
    scheduler, tracer, serving = make_traced_serving(toy_exe, seed=1)
    inputs = toy_mlp_inputs(rng, 3, 5)

    cold = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    warm = serving.submit("mlp", inputs)
    scheduler.run_until_idle()

    assert cold.response.path == "fallback"
    assert warm.response.path == "fast"
    assert lifecycle(tracer) == [
        # cold request: admitted, routed to the fallback while the
        # background compile attempt starts...
        "request", "serving:admit", "serving:route",
        "compile:attempt", "fallback:run", "serving:respond",
        # ...the pool worker freezes the plan and installs it...
        "engine:prepare", "compile:ready",
        # ...so the warm request replays it on the fast path.
        "request", "serving:admit", "serving:route",
        "engine:run", "cache:plan:hit", "engine:replay",
        "serving:respond",
    ]


def test_request_span_timestamps_are_exact_virtual_times(toy_exe, rng):
    scheduler, tracer, serving = make_traced_serving(toy_exe, seed=1)
    inputs = toy_mlp_inputs(rng, 3, 5)
    ticket = serving.submit("mlp", inputs)
    scheduler.run_until_idle()

    request = tracer.spans.one("request")
    # submitted at virtual t=0; the span closes exactly when the
    # response is produced, so duration == reported latency.
    assert request.start_us == 0.0
    assert request.end_us == ticket.response.latency_us
    respond = tracer.spans.one("serving:respond")
    assert respond.start_us == request.end_us
    assert respond.parent is request


def test_compile_attempt_span_measures_the_compile_cost(toy_exe, rng):
    scheduler, tracer, serving = make_traced_serving(toy_exe, seed=1)
    serving.submit("mlp", toy_mlp_inputs(rng, 3, 5))
    scheduler.run_until_idle()

    attempt = tracer.spans.one("compile:attempt")
    # attempts are roots (they outlive the request that triggered them)
    assert attempt.parent is None
    assert attempt.attrs["outcome"] == "ready"
    assert attempt.attrs["attempt"] == 1
    assert attempt.duration_us == \
        serving.model("mlp").compile_duration_us
    ready = tracer.spans.one("compile:ready")
    assert ready.start_us == attempt.end_us


def test_request_span_attribute_schema(toy_exe, rng):
    scheduler, tracer, serving = make_traced_serving(toy_exe, seed=1)
    serving.submit("mlp", toy_mlp_inputs(rng, 3, 5))
    scheduler.run_until_idle()
    request = tracer.spans.one("request")
    assert request.attrs["model"] == "mlp"
    assert "x[3x5x32]" in request.attrs["signature"]
    assert request.attrs["status"] == "ok"
    assert request.attrs["path"] == "fallback"
    route = tracer.spans.one("serving:route")
    assert route.attrs["path"] == "fallback"
    assert route.parent is request
    fallback = tracer.spans.one("fallback:run")
    assert fallback.parent is request


def test_quarantine_exact_sequence(toy_exe, rng):
    scheduler, tracer, serving = make_traced_serving(
        toy_exe, seed=1,
        compile_fault=CompileFaultInjector(permanent=True))
    inputs = toy_mlp_inputs(rng, 3, 5)

    cold = serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    pinned = serving.submit("mlp", inputs)
    scheduler.run_until_idle()

    assert cold.response.ok and pinned.response.ok
    assert pinned.response.path == "quarantined"
    assert serving.compile_state(
        "mlp", cold.request.signature) is CompileState.QUARANTINED
    assert lifecycle(tracer) == [
        "request", "serving:admit", "serving:route",
        "compile:attempt", "fallback:run", "serving:respond",
        "compile:quarantine",
        # the quarantined signature routes straight to the fallback,
        # with no new compile attempt — quarantine means stop trying.
        "request", "serving:admit", "serving:route",
        "fallback:run", "serving:respond",
    ]
    attempt = tracer.spans.one("compile:attempt")
    assert attempt.attrs["outcome"] == "permanent_failure"
    quarantine = tracer.spans.one("compile:quarantine")
    assert quarantine.start_us == attempt.end_us


def test_transient_failure_traces_one_span_per_attempt(toy_exe, rng):
    scheduler, tracer, serving = make_traced_serving(
        toy_exe, seed=1,
        compile_fault=CompileFaultInjector(transient_attempts=1))
    serving.submit("mlp", toy_mlp_inputs(rng, 3, 5))
    scheduler.run_until_idle()

    attempts = tracer.named("compile:attempt")
    assert attempts.attr_values("attempt") == [1, 2]
    assert attempts.attr_values("outcome") == \
        ["transient_failure", "ready"]
    # the retry starts when the failed attempt ends (same worker, no
    # other jobs queued)
    assert attempts[1].start_us >= attempts[0].end_us
    assert len(tracer.named("compile:ready")) == 1


def test_coalesced_requests_trace_one_attempt(toy_exe, rng):
    scheduler, tracer, serving = make_traced_serving(toy_exe, seed=1)
    inputs = toy_mlp_inputs(rng, 3, 5)
    for _ in range(3):
        serving.submit("mlp", inputs)
    scheduler.run_until_idle()
    assert len(tracer.named("compile:attempt")) == 1
    assert len(tracer.named("compile:coalesced")) == 2
    assert len(tracer.named("request")) == 3


def test_shed_request_traces_the_shed_event(toy_exe, rng):
    scheduler, tracer, serving = make_traced_serving(
        toy_exe, seed=1, queue_capacity=1)
    inputs = toy_mlp_inputs(rng, 3, 5)
    serving.submit("mlp", inputs)            # in service
    serving.submit("mlp", inputs)            # waiting (fills the queue)
    shed = serving.submit("mlp", inputs)     # overflow -> shed
    scheduler.run_until_idle()
    assert not shed.response.ok
    event = tracer.spans.one("serving:shed")
    assert event.parent.attrs["id"] == shed.request.id
    assert event.parent.attrs["status"] == "shed"


def test_serving_trace_is_balanced_and_contained(toy_exe, rng):
    scheduler, tracer, serving = make_traced_serving(
        toy_exe, seed=1,
        compile_fault=CompileFaultInjector(transient_attempts=1,
                                           permanent_every=3))
    for batch in (3, 4, 5, 3, 4, 5):
        serving.submit("mlp", toy_mlp_inputs(rng, batch, 5))
        scheduler.run_until_idle()
    spans = tracer.spans
    assert check_balanced(spans) == []
    assert check_containment(spans) == []
    # every request span closed with a status
    assert all("status" in r.attrs for r in spans.named("request"))


def test_unknown_exception_ends_the_attempt_span_as_an_error(toy_exe, rng):
    def fault(model, signature, attempt):
        raise ValueError("injected non-compile fault")

    scheduler, tracer, serving = make_traced_serving(
        toy_exe, seed=1, compile_fault=fault)
    cold = serving.submit("mlp", toy_mlp_inputs(rng, 3, 5))
    scheduler.run_until_idle()

    assert cold.response.ok
    attempt = tracer.spans.one("compile:attempt")
    assert attempt.attrs["outcome"] == "error"
    assert attempt.attrs["error"] == "ValueError"
    assert tracer.spans.one("compile:quarantine").start_us == \
        attempt.end_us
