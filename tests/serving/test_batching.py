"""The deterministic batching harness: every flush at an exact tick.

All scenarios run on the virtual scheduler, so bucket membership, flush
times and completion times are asserted *exactly* — no tolerance bands,
no sleeps.  The toy MLP's two free axes (batch, seq) are one constraint
class each, so a signature ``(b, s)`` buckets by the pow2 ceilings
``(ceil2(b), ceil2(s))``.
"""

import numpy as np
import pytest

from repro.device import A10
from repro.obs import MetricsRegistry, Tracer
from repro.runtime import ExecutionEngine
from repro.serving import (BatchingOptions, PermanentCompileError,
                           ResponseStatus, ServingEngine)

from ..conftest import toy_mlp_inputs
from .conftest import bit_identical, make_batching, make_serving

DELAY_US = 2_000.0


def options(**overrides):
    overrides.setdefault("max_queue_delay_us", DELAY_US)
    return BatchingOptions(**overrides)


@pytest.fixture(scope="module")
def inputs_by_shape():
    rng = np.random.default_rng(42)
    return {(b, s): toy_mlp_inputs(rng, b, s)
            for b, s in [(3, 5), (4, 7), (2, 2), (3, 5)][:3]}


@pytest.fixture(scope="module")
def expected_by_shape(toy_exe, inputs_by_shape):
    engine = ExecutionEngine(toy_exe, A10)
    return {shape: engine.run(inputs)[0]
            for shape, inputs in inputs_by_shape.items()}


def warm_batched(serving, shape_inputs, batch_size):
    """Pre-freeze the batched plan the bucket of ``shape_inputs`` needs;
    returns its frozen per-launch cost."""
    entry = serving.model("mlp")
    signature = entry.engine.host_program.signature(shape_inputs)
    padded = serving.bucketer("mlp").padded_signature(signature)
    plan = entry.engine.prepare_batched(padded, batch_size)
    return plan.make_stats().total_time_us


# ---------------------------------------------------------------------------
# bucketing rules
# ---------------------------------------------------------------------------

def test_compatible_signatures_share_a_bucket_key(toy_exe,
                                                  inputs_by_shape):
    _, serving = make_batching(toy_exe)
    program = serving.model("mlp").engine.host_program
    bucketer = serving.bucketer("mlp")
    sig = {shape: program.signature(inputs)
           for shape, inputs in inputs_by_shape.items()}
    # (3,5) and (4,7) round to the same (4, 8) ceilings; (2,2) does not.
    assert bucketer.bucket_key(sig[(3, 5)]) == \
        bucketer.bucket_key(sig[(4, 7)]) == (4, 8)
    assert bucketer.bucket_key(sig[(2, 2)]) == (2, 2)
    # Padding is per constraint class, to the bucket ceiling: both
    # members of the (4, 8) bucket pad to the identical signature.
    assert bucketer.padded_signature(sig[(3, 5)]) == \
        bucketer.padded_signature(sig[(4, 7)])
    assert bucketer.padded_signature(sig[(3, 5)])[0] == ("x", (4, 8, 32))
    # The exactly-at-ceiling member pays less padding than the smaller.
    assert bucketer.padding_waste(sig[(4, 7)]) < \
        bucketer.padding_waste(sig[(3, 5)])


# ---------------------------------------------------------------------------
# batch formation: exact flush and completion times
# ---------------------------------------------------------------------------

def test_delay_flush_fires_at_exactly_max_queue_delay(toy_exe,
                                                      inputs_by_shape,
                                                      expected_by_shape):
    scheduler, serving = make_batching(toy_exe, batching=options())
    service_us = warm_batched(serving, inputs_by_shape[(3, 5)], 2)
    t1 = serving.submit("mlp", inputs_by_shape[(3, 5)])
    t2 = serving.submit("mlp", inputs_by_shape[(4, 7)])
    scheduler.run_until_idle()
    # Bucket opened at t=0, flushed at exactly DELAY_US, one batched
    # launch, both responses at exactly DELAY_US + the frozen plan cost.
    for ticket, shape in ((t1, (3, 5)), (t2, (4, 7))):
        response = ticket.response
        assert response.ok and response.path == "batched"
        assert response.finish_us == DELAY_US + service_us
        assert response.stats.details["batch"]["size"] == 2
        assert bit_identical(expected_by_shape[shape], response.outputs)
    assert serving.counters["batches_formed"] == 1
    assert serving.counters["batched_served"] == 2


def test_size_trigger_flushes_immediately(toy_exe, inputs_by_shape,
                                          expected_by_shape):
    scheduler, serving = make_batching(
        toy_exe, batching=options(max_batch_size=2))
    service_us = warm_batched(serving, inputs_by_shape[(3, 5)], 2)
    t1 = serving.submit("mlp", inputs_by_shape[(3, 5)])
    t2 = serving.submit("mlp", inputs_by_shape[(4, 7)])
    scheduler.run_until_idle()
    # The second member fills the bucket: flush at t=0, not DELAY_US.
    for ticket in (t1, t2):
        assert ticket.response.ok and ticket.response.path == "batched"
        assert ticket.response.finish_us == service_us
    assert serving.counters["batches_formed"] == 1


def test_incompatible_signature_opens_its_own_bucket(toy_exe,
                                                     inputs_by_shape,
                                                     expected_by_shape):
    scheduler, serving = make_batching(toy_exe, batching=options())
    warm_batched(serving, inputs_by_shape[(3, 5)], 2)
    tickets = {shape: serving.submit("mlp", inputs_by_shape[shape])
               for shape in [(3, 5), (4, 7), (2, 2)]}
    scheduler.run_until_idle()
    # (3,5)+(4,7) batch together; (2,2) flushes alone and serves solo.
    assert tickets[(3, 5)].response.path == "batched"
    assert tickets[(4, 7)].response.path == "batched"
    assert tickets[(2, 2)].response.path in ("fast", "fallback")
    for shape, ticket in tickets.items():
        assert bit_identical(expected_by_shape[shape],
                             ticket.response.outputs)
    assert serving.counters["batches_formed"] == 1


def test_lone_stream_behaves_like_the_unbatched_engine(toy_exe,
                                                       inputs_by_shape):
    """A single-request stream must produce the unbatched transcript,
    shifted only by the flush delay it waited in its bucket."""
    inputs = inputs_by_shape[(3, 5)]
    sched_a, batched = make_batching(toy_exe, batching=options())
    sched_b, plain = make_serving(toy_exe)
    ta = batched.submit("mlp", inputs)
    tb = plain.submit("mlp", inputs)
    sched_a.run_until_idle()
    sched_b.run_until_idle()
    assert ta.response.path == tb.response.path == "fallback"
    assert ta.response.finish_us == tb.response.finish_us + DELAY_US
    assert ta.response.outputs[0].tobytes() == \
        tb.response.outputs[0].tobytes()
    assert batched.counters["batches_formed"] == 0


# ---------------------------------------------------------------------------
# admission seams: shed before bucket placement, deadline inside a bucket
# ---------------------------------------------------------------------------

def test_deadline_expiring_in_bucket_times_out_at_exact_tick(
        toy_exe, inputs_by_shape):
    """A deadline shorter than the flush delay fires while the request
    sits in its bucket: the TIMEOUT goes out at exactly the deadline and
    the request never occupies a batch slot."""
    scheduler, serving = make_batching(toy_exe, batching=options())
    doomed = serving.submit("mlp", inputs_by_shape[(3, 5)],
                            deadline_us=500.0)
    survivor = serving.submit("mlp", inputs_by_shape[(4, 7)])
    scheduler.run_until_idle()
    assert doomed.response.status is ResponseStatus.TIMEOUT
    assert doomed.response.finish_us == 500.0
    # The survivor flushed alone at DELAY_US and served solo: the
    # expired member is gone from the bucket, so no batch formed.
    assert survivor.response.ok
    assert survivor.response.path in ("fast", "fallback")
    assert serving.counters["batches_formed"] == 0
    assert serving.counters["timeouts"] == 1


def test_whole_bucket_expiring_cancels_the_flush(toy_exe,
                                                 inputs_by_shape):
    scheduler, serving = make_batching(toy_exe, batching=options())
    tickets = [serving.submit("mlp", inputs_by_shape[(3, 5)],
                              deadline_us=100.0 + i)
               for i in range(2)]
    scheduler.run_until_idle()
    for ticket in tickets:
        assert ticket.response.status is ResponseStatus.TIMEOUT
    assert serving.counters["batches_formed"] == 0
    assert serving.stats()["batching"]["open_buckets"] == 0


def test_shed_decision_counts_bucketed_members(toy_exe, inputs_by_shape):
    """Admission control sees bucketed members as waiting: with
    queue_capacity=1, a second arrival is shed while the first sits in a
    bucket behind a busy server — never silently admitted into a batch."""
    scheduler, serving = make_batching(
        toy_exe, batching=options(), queue_capacity=1)
    # Occupy the server (solo request dispatches immediately after its
    # lone-bucket flush), then fill the one waiting slot, then overflow.
    first = serving.submit("mlp", inputs_by_shape[(2, 2)])
    scheduler.run_until(DELAY_US + 1.0)
    assert serving._current is not None
    second = serving.submit("mlp", inputs_by_shape[(3, 5)])
    third = serving.submit("mlp", inputs_by_shape[(4, 7)])
    scheduler.run_until_idle()
    assert first.response.ok
    assert second.response.ok
    assert third.response.status is ResponseStatus.SHED
    # The shed happened at admission: the bucket never saw the request.
    assert serving.counters["shed"] == 1
    assert serving.counters["batches_formed"] == 0


def test_deadline_during_batch_service_still_responds_timeout(
        toy_exe, inputs_by_shape):
    """A deadline that fires after the batch entered service produces a
    TIMEOUT at the exact deadline; the batch completion skips the dead
    member and serves the rest."""
    scheduler, serving = make_batching(toy_exe, batching=options())
    service_us = warm_batched(serving, inputs_by_shape[(3, 5)], 2)
    assert service_us > 10.0  # the mid-service deadline below must land
    doomed = serving.submit("mlp", inputs_by_shape[(3, 5)],
                            deadline_us=DELAY_US + service_us / 2)
    survivor = serving.submit("mlp", inputs_by_shape[(4, 7)])
    scheduler.run_until_idle()
    assert doomed.response.status is ResponseStatus.TIMEOUT
    assert doomed.response.finish_us == DELAY_US + service_us / 2
    assert survivor.response.ok and survivor.response.path == "batched"
    assert survivor.response.finish_us == DELAY_US + service_us
    assert serving.counters["batched_served"] == 1


# ---------------------------------------------------------------------------
# cold batches: explode now, batch later; quarantine pins to solo
# ---------------------------------------------------------------------------

def test_cold_batch_explodes_then_warms_to_batched(toy_exe,
                                                   inputs_by_shape,
                                                   expected_by_shape):
    scheduler, serving = make_batching(toy_exe, batching=options())
    wave1 = [serving.submit("mlp", inputs_by_shape[s])
             for s in [(3, 5), (4, 7)]]
    scheduler.run_until_idle()
    wave2 = [serving.submit("mlp", inputs_by_shape[s])
             for s in [(3, 5), (4, 7)]]
    scheduler.run_until_idle()
    # Cold: the batch exploded, members served on the solo fallback path
    # immediately — nobody waited on the batched compile.
    assert [t.response.path for t in wave1] == ["fallback", "fallback"]
    assert serving.counters["batches_exploded"] == 1
    # Warm: the background compile finished; the same mix batches.
    assert [t.response.path for t in wave2] == ["batched", "batched"]
    for ticket, shape in zip(wave1 + wave2,
                             [(3, 5), (4, 7), (3, 5), (4, 7)]):
        assert bit_identical(expected_by_shape[shape],
                             ticket.response.outputs)


def test_quarantined_batched_key_pins_bucket_to_solo(toy_exe,
                                                     inputs_by_shape):
    """Permanent faults on *batched* signatures only (rank is one higher
    than solo): the batched key quarantines, the bucket serves solo
    forever, solo compiles stay healthy, no response ever errors."""

    def batched_only_fault(model, signature, attempt):
        if len(signature[0][1]) == 4:  # x gains a leading batch dim
            raise PermanentCompileError("injected batched-plan fault")

    scheduler, serving = make_batching(toy_exe, batching=options(),
                                       compile_fault=batched_only_fault)
    waves = []
    for start in (0.0, 1e8, 2e8):
        scheduler.call_at(start, lambda: waves.append(
            [serving.submit("mlp", inputs_by_shape[s])
             for s in [(3, 5), (4, 7)]]))
    scheduler.run_until_idle()
    assert serving.counters["batched_served"] == 0
    assert serving.counters["batches_exploded"] == 3
    assert [t.response.path for t in waves[0]] == ["fallback", "fallback"]
    # Solo plans compiled fine, so later explosions serve warm.
    for wave in waves[1:]:
        assert [t.response.path for t in wave] == ["fast", "fast"]
    assert len(serving.quarantined_signatures()) == 1


# ---------------------------------------------------------------------------
# observability: batch spans
# ---------------------------------------------------------------------------

def test_batch_metrics_and_spans_are_recorded(toy_exe, inputs_by_shape):
    from repro.serving import VirtualScheduler

    scheduler = VirtualScheduler(seed=0)
    tracer = Tracer(clock=scheduler.clock, metrics=MetricsRegistry())
    from repro.serving import (BatchingServingEngine, ServingOptions)
    from .conftest import FAST_COMPILE

    serving = BatchingServingEngine(
        A10, scheduler,
        ServingOptions(compile_cost=FAST_COMPILE),
        batching=options(), tracer=tracer)
    serving.register_model("mlp", toy_exe)
    warm_batched(serving, inputs_by_shape[(3, 5)], 2)
    for shape in [(3, 5), (4, 7)]:
        serving.submit("mlp", inputs_by_shape[shape])
    scheduler.run_until_idle()

    assert tracer.metrics.snapshot()["counters"]["spans.batch:launch"] == 1
    assert tracer.spans.one("batch:launch").attrs["size"] == 2
    waste = [serving.bucketer("mlp").padding_waste(r.signature)
             for r in serving.completed if r.path == "batched"]
    assert len(waste) == 2 and 0.0 < sum(waste) / 2 < 1.0
    names = tracer.spans.names()
    assert names.count("batch:enqueue") == 2
    assert names.count("batch:flush") == 1
    assert "batch:launch" in names


# ---------------------------------------------------------------------------
# determinism: 50 seeds, exact transcript replay
# ---------------------------------------------------------------------------

SEEDS = list(range(50))
SHAPES = [(3, 5), (3, 5), (4, 7), (3, 5), (2, 2), (4, 7), (3, 5), (2, 2)]


def run_scenario(toy_exe, seed, inputs_by_shape):
    from repro.fuzz import CompileFaultInjector

    fault = CompileFaultInjector(transient_attempts=1, permanent_every=4)
    scheduler, serving = make_batching(
        toy_exe, seed=seed, compile_fault=fault, queue_capacity=4,
        compile_backoff_us=2_000.0,
        batching=options(max_batch_size=3))
    tickets = []

    def submit(shape, deadline_us):
        tickets.append((shape, serving.submit(
            "mlp", inputs_by_shape[shape], deadline_us=deadline_us)))

    # Simultaneous arrivals at t=0 (seed permutes the order, which
    # decides bucket membership), a mid-flight wave, a deadline that
    # expires inside its bucket, and a warm wave that must batch.
    for shape in SHAPES[:3]:
        scheduler.call_at(0.0, lambda s=shape: submit(s, None))
    for shape in SHAPES[3:6]:
        scheduler.call_at(800.0, lambda s=shape: submit(s, None))
    scheduler.call_at(900.0, lambda: submit((3, 5), 300.0))
    for shape in SHAPES[6:]:
        scheduler.call_at(1e8, lambda s=shape: submit(s, None))
    scheduler.run_until_idle()
    return serving, tickets


def transcript(serving, tickets):
    """Everything observable: per-request outcome AND batch membership
    (which launch served a request shows in the batch detail block)."""
    rows = []
    for _, ticket in tickets:
        response = ticket.response
        batch = None
        if response.stats is not None:
            batch = response.stats.details.get("batch")
            batch = (batch["size"], batch["padded_signature"]) \
                if batch else None
        rows.append((ticket.request.id, response.status.value,
                     response.path, response.finish_us, batch))
    rows.append(("counters",
                 tuple(sorted(serving.counters.items()))))
    return tuple(rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_upholds_batching_invariants(toy_exe, seed, inputs_by_shape,
                                          expected_by_shape):
    serving, tickets = run_scenario(toy_exe, seed, inputs_by_shape)
    assert len(tickets) == 9
    for shape, ticket in tickets:
        response = ticket.response
        assert response is not None, "request fell through the cracks"
        assert response.status in (ResponseStatus.OK,
                                   ResponseStatus.TIMEOUT,
                                   ResponseStatus.SHED)
        if response.status is ResponseStatus.OK:
            assert bit_identical(expected_by_shape[shape],
                                 response.outputs), \
                f"seed {seed}: {response.path} path diverged"
    counters = serving.counters
    assert counters["ok"] + counters["shed"] + counters["timeouts"] == 9
    # The warm wave at t=1e8 pairs (3,5)+(2,2)... distinct buckets — but
    # every earlier (3,5)/(4,7) pair that met in a bucket batched, so at
    # least one batch formed unless sheds/timeouts starved the buckets.
    assert counters["batches_formed"] >= 1 or counters["shed"] >= 2


@pytest.mark.parametrize("seed", [0, 17, 43])
def test_same_seed_reproduces_the_exact_transcript(toy_exe, seed,
                                                   inputs_by_shape):
    a_serving, a = run_scenario(toy_exe, seed, inputs_by_shape)
    b_serving, b = run_scenario(toy_exe, seed, inputs_by_shape)
    assert transcript(a_serving, a) == transcript(b_serving, b)


def test_seeds_explore_distinct_interleavings(toy_exe, inputs_by_shape):
    transcripts = set()
    for seed in SEEDS[:10]:
        serving, tickets = run_scenario(toy_exe, seed, inputs_by_shape)
        transcripts.add(transcript(serving, tickets))
    assert len(transcripts) > 1, \
        "seed sweep is vacuous: every seed produced one interleaving"


# ---------------------------------------------------------------------------
# memory budget: proven caps on pad ceilings and batch sizes
# ---------------------------------------------------------------------------

def proven_toy(batch_hi=12, seq_hi=48):
    from repro.core import compile_graph
    from repro.core.pipeline import CompileOptions

    from ..conftest import toy_mlp_graph

    return compile_graph(toy_mlp_graph().graph, CompileOptions(
        assume_ranges={"batch": (1, batch_hi), "seq": (1, seq_hi)}))


def big_budget():
    from repro.runtime import MemoryBudget

    return MemoryBudget(1 << 40)


def test_budget_caps_bucket_ceilings_at_proven_class_maxima(rng=None):
    """pow2 padding past the proven class range burns bytes no request
    can ever need: with a budget declared, the ceilings clamp to the
    interval maxima (batch <= 12, seq <= 48)."""
    exe = proven_toy()
    _, serving = make_batching(exe, batching=options(
        memory_budget=big_budget()))
    bucketer = serving.bucketer("mlp")
    assert bucketer.class_caps == (12, 48)
    # Stock pow2 would jump 9 -> 16 and 33 -> 64; the caps stop that.
    assert bucketer.class_ceiling(0, 9) == 12
    assert bucketer.class_ceiling(1, 33) == 48
    # Below the cap the stock schedule is untouched.
    assert bucketer.class_ceiling(0, 3) == 4
    assert bucketer.class_ceiling(1, 17) == 32


def test_budget_capped_bucketer_passes_the_l604_audit():
    """The clamp must stay an upper bound of every in-class value —
    the padding analyzer proves it over the declared intervals."""
    from repro.core.symbolic.intervals import derive_intervals
    from repro.lint import check_bucket_padding

    exe = proven_toy()
    _, serving = make_batching(exe, batching=options(
        memory_budget=big_budget()))
    imap = derive_intervals(exe.graph,
                            assume_ranges={"batch": (1, 12),
                                           "seq": (1, 48)})
    sink = check_bucket_padding(serving.bucketer("mlp"), imap)
    assert not sink.codes(), sink.render()


def test_budget_tightens_the_configured_batch_limit():
    from repro.runtime import MemoryBudget

    exe = proven_toy()
    symbolic = exe.symbolic_plan
    hi = symbolic.peak_hi_bytes()
    fits_two = MemoryBudget(symbolic.constant_bytes + 2 * hi + hi // 2)
    _, serving = make_batching(exe, batching=options(
        max_batch_size=4, memory_budget=fits_two))
    assert serving.max_batch_for("mlp") == 2
    # A generous budget leaves the configured limit in charge.
    _, roomy = make_batching(exe, batching=options(
        max_batch_size=4, memory_budget=big_budget()))
    assert roomy.max_batch_for("mlp") == 4


def test_budget_too_small_for_one_member_fails_registration():
    from repro.runtime import MemoryBudget

    exe = proven_toy()
    starved = MemoryBudget(max(exe.symbolic_plan.constant_bytes, 1))
    with pytest.raises(ValueError, match="does not fit"):
        make_batching(exe, batching=options(memory_budget=starved))


def test_unproven_plan_leaves_batching_unconstrained(toy_exe):
    """No finite proven peak -> no cap; the configured limit applies
    and registration succeeds ("cannot prove" is never "does not
    fit")."""
    from repro.runtime import MemoryBudget

    _, serving = make_batching(toy_exe, batching=options(
        max_batch_size=4, memory_budget=MemoryBudget(1)))
    assert serving.max_batch_for("mlp") == 4
    caps = serving.bucketer("mlp").class_caps
    assert caps is None or all(cap is None for cap in caps)
    # Uncapped ceilings follow the stock pow2 schedule.
    assert serving.bucketer("mlp").class_ceiling(0, 9) == 16


def test_capped_batches_never_exceed_the_proven_limit(inputs_by_shape,
                                                      expected_by_shape):
    """Behavioral: with a two-member budget cap and four co-bucketable
    arrivals, every launch holds at most two members and every response
    stays bit-identical."""
    from repro.runtime import MemoryBudget

    exe = proven_toy()
    symbolic = exe.symbolic_plan
    hi = symbolic.peak_hi_bytes()
    fits_two = MemoryBudget(symbolic.constant_bytes + 2 * hi + hi // 2)
    scheduler, serving = make_batching(exe, batching=options(
        max_batch_size=4, memory_budget=fits_two))
    warm_batched(serving, inputs_by_shape[(3, 5)], 2)
    engine = ExecutionEngine(exe, A10)
    tickets = []
    for _ in range(2):
        tickets.append(serving.submit("mlp", inputs_by_shape[(3, 5)]))
        tickets.append(serving.submit("mlp", inputs_by_shape[(4, 7)]))
    scheduler.run_until_idle()
    for ticket in tickets:
        response = ticket.response
        assert response.ok
        batch = response.stats.details.get("batch")
        if batch is not None:
            assert batch["size"] <= 2
        shape = (3, 5) if ticket.request.inputs \
            is inputs_by_shape[(3, 5)] else (4, 7)
        assert bit_identical(engine.run(inputs_by_shape[shape])[0],
                             response.outputs)
    assert serving.counters["batched_served"] >= 2
