"""Property: every served response == a direct single-threaded run.

For any generated graph, any shape bindings, any interleaving seed and
any compile-fault schedule, every OK response out of the serving runtime
is *bit-identical* to running the same inputs through an
``ExecutionEngine`` directly — a request cannot observe which path
(fast, fallback, quarantined) served it.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import compile_graph
from repro.device import A10
from repro.fuzz import CompileFaultInjector, make_inputs
from repro.fuzz.sampler import binding_suite
from repro.runtime import ExecutionEngine
from repro.serving import (BatchingOptions, BatchingServingEngine,
                           FleetEngine, FleetOptions, ResponseStatus,
                           ServingEngine, ServingOptions,
                           SignatureCompileCost, VirtualScheduler)

from ..strategies import batched_request_mixes, fuzz_graphs
from .conftest import bit_identical


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=fuzz_graphs(max_nodes=10),
       seed=st.integers(min_value=0, max_value=2**16),
       transient=st.integers(min_value=0, max_value=2),
       permanent_every=st.sampled_from([None, 2]))
def test_responses_bit_identical_to_direct_engine(graph, seed, transient,
                                                  permanent_every):
    executable = compile_graph(graph)
    reference = ExecutionEngine(executable, A10)
    fault = CompileFaultInjector(transient_attempts=transient,
                                 permanent_every=permanent_every)
    scheduler = VirtualScheduler(seed=seed)
    serving = ServingEngine(
        A10, scheduler,
        ServingOptions(
            compile_workers=1 + seed % 3,
            compile_backoff_us=500.0,
            compile_cost=SignatureCompileCost(fixed_us=2_000.0,
                                              per_kernel_us=50.0)),
        compile_fault=fault)
    serving.register_model("m", executable)

    cases = [make_inputs(graph, bindings, seed=7)
             for bindings in binding_suite(graph, limit=2)]
    tickets = []
    for index, inputs in enumerate(cases):
        # A cold burst (simultaneous with the other signatures) and a
        # warm revisit long after the compiles settled.
        scheduler.call_at(0.0, lambda i=inputs: tickets.append(
            (i, serving.submit("m", i))))
        scheduler.call_at(1e7 + index, lambda i=inputs: tickets.append(
            (i, serving.submit("m", i))))
    scheduler.run_until_idle()

    assert len(tickets) == 2 * len(cases)
    for inputs, ticket in tickets:
        response = ticket.response
        assert response is not None and response.ok
        expected, _ = reference.run(inputs)
        assert bit_identical(expected, response.outputs), \
            f"path {response.path!r} diverged from direct engine run"


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=fuzz_graphs(max_nodes=10),
       mix=batched_request_mixes(),
       seed=st.integers(min_value=0, max_value=2**16),
       transient=st.integers(min_value=0, max_value=1),
       permanent_every=st.sampled_from([None, 2]))
def test_batched_responses_bit_identical_to_direct_engine(
        graph, mix, seed, transient, permanent_every):
    """The batching property: for any graph, any request mix (arrival
    waves, shared and distinct signatures, tight deadlines), any seed
    and any compile-fault schedule, every OK response out of the
    batching engine — batched or solo, padded or not — is bit-identical
    to a direct ``ExecutionEngine`` run of the same inputs."""
    executable = compile_graph(graph)
    reference = ExecutionEngine(executable, A10)
    fault = CompileFaultInjector(transient_attempts=transient,
                                 permanent_every=permanent_every)
    scheduler = VirtualScheduler(seed=seed)
    serving = BatchingServingEngine(
        A10, scheduler,
        ServingOptions(
            compile_workers=1 + seed % 2,
            compile_backoff_us=500.0,
            compile_cost=SignatureCompileCost(fixed_us=2_000.0,
                                              per_kernel_us=50.0)),
        batching=BatchingOptions(max_batch_size=4,
                                 max_queue_delay_us=1_500.0),
        compile_fault=fault)
    serving.register_model("m", executable)

    cases = [make_inputs(graph, bindings, seed=7)
             for bindings in binding_suite(graph, limit=3)]
    tickets = []
    for index, (case_index, arrival_us, tight) in enumerate(mix):
        inputs = cases[case_index % len(cases)]
        deadline = 1_000.0 if tight else None
        scheduler.call_at(arrival_us, lambda i=inputs, d=deadline:
                          tickets.append((i, serving.submit("m", i, d))))
    scheduler.run_until_idle()

    assert len(tickets) == len(mix)
    for inputs, ticket in tickets:
        response = ticket.response
        assert response is not None
        assert response.status in (ResponseStatus.OK,
                                   ResponseStatus.TIMEOUT,
                                   ResponseStatus.SHED)
        if response.ok:
            expected, _ = reference.run(inputs)
            assert bit_identical(expected, response.outputs), \
                f"path {response.path!r} diverged from direct engine run"


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=fuzz_graphs(max_nodes=10),
       seed=st.integers(min_value=0, max_value=2**16),
       replicas=st.integers(min_value=1, max_value=4),
       policy=st.sampled_from(["affinity", "round_robin",
                               "least_outstanding"]),
       transient=st.integers(min_value=0, max_value=2),
       permanent_every=st.sampled_from([None, 2]),
       drain_mid_stream=st.booleans())
def test_fleet_responses_bit_identical_to_direct_engine(
        graph, seed, replicas, policy, transient, permanent_every,
        drain_mid_stream):
    """The fleet property: for any graph, any routing policy, any
    replica count, any per-replica compile-fault schedule, and a scale
    event mid-stream, every OK fleet response is bit-identical to a
    direct ``ExecutionEngine`` run — a request cannot observe which
    replica (or which path on it) served it."""
    executable = compile_graph(graph)
    reference = ExecutionEngine(executable, A10)
    faults = {}

    def fault_factory(uid):
        # Every replica gets its own seeded schedule.
        return faults.setdefault(uid, CompileFaultInjector(
            transient_attempts=(transient + uid) % 3,
            permanent_every=permanent_every))

    scheduler = VirtualScheduler(seed=seed)
    fleet = FleetEngine(
        A10, scheduler,
        FleetOptions(
            replicas=replicas, policy=policy,
            serving=ServingOptions(
                compile_workers=1 + seed % 3,
                compile_backoff_us=500.0,
                compile_cost=SignatureCompileCost(fixed_us=2_000.0,
                                                  per_kernel_us=50.0))),
        compile_fault_factory=fault_factory)
    fleet.register_model("m", executable)

    cases = [make_inputs(graph, bindings, seed=7)
             for bindings in binding_suite(graph, limit=2)]
    tickets = []
    for index, inputs in enumerate(cases):
        scheduler.call_at(0.0, lambda i=inputs: tickets.append(
            (i, fleet.submit("m", i))))
        scheduler.call_at(1e7 + index, lambda i=inputs: tickets.append(
            (i, fleet.submit("m", i))))
    if drain_mid_stream and replicas > 1:
        scheduler.call_at(5_000.0, lambda: fleet.drain("r0"))
    scheduler.run_until_idle()

    assert len(tickets) == 2 * len(cases)
    for inputs, ticket in tickets:
        response = ticket.response
        assert response is not None and response.ok
        expected, _ = reference.run(inputs)
        assert bit_identical(expected, response.outputs), \
            f"replica {ticket.replica!r} path {response.path!r} " \
            "diverged from direct engine run"
