"""Engine traces: record vs replay, kernel ledgers, cache events."""

import pytest

from repro.device import A10
from repro.obs import CapturingTracer, trace_failures
from repro.runtime import ExecutionEngine
from repro.runtime.engine import EngineOptions, LegacyExecutionEngine

from ..conftest import toy_mlp_inputs


@pytest.fixture
def traced_engine(toy_exe):
    tracer = CapturingTracer()
    return tracer, ExecutionEngine(toy_exe, A10, tracer=tracer)


def test_first_call_records_then_second_replays(traced_engine, rng):
    tracer, engine = traced_engine
    inputs = toy_mlp_inputs(rng, 3, 5)
    engine.run(inputs)
    engine.run(inputs)

    runs = tracer.named("engine:run")
    assert len(runs) == 2
    record_run, replay_run = runs[0], runs[1]
    assert record_run.attrs["path"] == "record"
    assert record_run.attrs["cache_hit"] is False
    assert replay_run.attrs["path"] == "replay"
    assert replay_run.attrs["cache_hit"] is True
    assert tracer.spans.one("engine:record").parent is record_run
    assert tracer.spans.one("engine:replay").parent is replay_run
    # both carry the call signature (formatted input extents)
    signature = record_run.attrs["signature"]
    assert "x[3x5x32]" in signature and signature == \
        replay_run.attrs["signature"]


def test_cache_hit_attrs_match_the_plan_cache_stats(traced_engine, rng):
    tracer, engine = traced_engine
    for batch in (3, 3, 4, 3):
        engine.run(toy_mlp_inputs(rng, batch, 5))
    stats = engine.plans.stats()
    hits = tracer.named("cache:plan:hit")
    misses = tracer.named("cache:plan:miss")
    assert len(hits) == stats["hits"] == 2
    assert len(misses) == stats["misses"] == 2
    # and the per-run cache_hit attrs tell the same story
    assert tracer.named("engine:run").attr_values("cache_hit") == \
        [False, True, False, True]
    # every cache event nests inside the engine:run that caused it
    for event in list(hits) + list(misses):
        assert event.parent.name == "engine:run"


def test_record_kernel_ledger_sums_to_run_stats(traced_engine, rng):
    tracer, engine = traced_engine
    _, stats = engine.run(toy_mlp_inputs(rng, 3, 5))
    record = tracer.spans.one("engine:record")
    assert record.attrs["kernels_launched"] == stats.kernels_launched
    kernels = tracer.spans.within(record).named("kernel:*")
    assert len(kernels) == len(engine.host_program.instructions)
    assert sum(k.attrs["launches"] for k in kernels) == \
        stats.kernels_launched
    # record-path kernel spans carry their output slots
    assert all("slots" in k.attrs for k in kernels)
    assert trace_failures(tracer, pass_names=[]) == []


def test_replay_kernel_spans_have_no_launch_attrs(traced_engine, rng):
    tracer, engine = traced_engine
    inputs = toy_mlp_inputs(rng, 3, 5)
    engine.run(inputs)
    engine.run(inputs)
    replay = tracer.spans.one("engine:replay")
    kernels = tracer.spans.within(replay).named("kernel:*")
    assert len(kernels) == len(engine.host_program.instructions)
    # replay charges the frozen aggregate, not kernel-by-kernel
    assert all("launches" not in k.attrs for k in kernels)


def test_traced_run_is_bit_identical_to_untraced(toy_exe, rng):
    inputs = toy_mlp_inputs(rng, 3, 5)
    plain = ExecutionEngine(toy_exe, A10)
    traced = ExecutionEngine(toy_exe, A10, tracer=CapturingTracer())
    for _ in range(2):                 # record, then replay
        expected_outs, expected = plain.run(inputs)
        actual_outs, actual = traced.run(inputs)
        assert actual == expected
        for e, a in zip(expected_outs, actual_outs):
            assert e.tobytes() == a.tobytes()


def test_prepare_span_matches_a_recorded_first_call(traced_engine, rng):
    tracer, engine = traced_engine
    inputs = toy_mlp_inputs(rng, 3, 5)
    plan = engine.prepare(inputs)
    span = tracer.spans.one("engine:prepare")
    assert span.attrs["kernels_launched"] == \
        plan.make_stats().kernels_launched
    assert "x[3x5x32]" in span.attrs["signature"]
    # prepared means warm: the next run replays
    engine.run(inputs)
    assert tracer.named("engine:record").names() == []
    assert len(tracer.named("engine:replay")) == 1


def test_eviction_events_match_cache_stats(toy_exe, rng):
    tracer = CapturingTracer()
    engine = ExecutionEngine(toy_exe, A10,
                             EngineOptions(plan_capacity=1),
                             tracer=tracer)
    for batch in (3, 4, 5):
        engine.run(toy_mlp_inputs(rng, batch, 5))
    assert engine.plans.stats()["evictions"] == 2
    evictions = tracer.named("cache:plan:evict")
    assert len(evictions) == 2
    # keys carry the formatted signature
    assert all(e.attrs["key"].startswith("x[")
               for e in evictions)


def test_legacy_engine_span_and_ledger(toy_exe, rng):
    tracer = CapturingTracer()
    inputs = toy_mlp_inputs(rng, 3, 5)
    legacy = LegacyExecutionEngine(toy_exe, A10, tracer=tracer)
    outputs, stats = legacy.run(inputs)
    run = tracer.spans.one("engine:legacy_run")
    assert run.attrs["kernels_launched"] == stats.kernels_launched
    kernels = tracer.spans.within(run).named("kernel:*")
    assert len(kernels) == len(toy_exe.kernels)
    assert sum(k.attrs["launches"] for k in kernels) == \
        stats.kernels_launched
    # and the traced legacy run still matches the untraced one bitwise
    expected_outs, expected = LegacyExecutionEngine(toy_exe, A10).run(
        inputs)
    assert stats == expected
    for e, a in zip(expected_outs, outputs):
        assert e.tobytes() == a.tobytes()


def test_untraced_engine_records_nothing(toy_exe, rng):
    engine = ExecutionEngine(toy_exe, A10)
    engine.run(toy_mlp_inputs(rng, 3, 5))
    assert engine.tracer.enabled is False
