"""Replay the checked-in fuzz corpus through the differential oracle.

Every file under ``tests/regressions/corpus`` is a minimized repro of a
bug the fuzzer once found (or a hand-shrunk coverage case for a fragile
path).  Each is deserialized via ``ir.serde`` and re-checked against every
executor — a fixed bug stays fixed.
"""

from pathlib import Path

import pytest

from repro.fuzz import DifferentialOracle, load_case
from repro.fuzz.corpus import iter_corpus
from repro.ir import verify

CORPUS_DIR = Path(__file__).parent / "corpus"
CASES = iter_corpus(CORPUS_DIR)


def test_corpus_is_not_empty():
    assert CASES, "regression corpus went missing"


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_verifies(path):
    graph, _bindings, _meta = load_case(path)
    verify(graph)


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_passes_differential_check(path):
    graph, bindings, meta = load_case(path)
    oracle = DifferentialOracle()
    result = oracle.check_case(graph, bindings,
                               input_seed=int(meta.get("input_seed", 0)))
    assert result.ok, (
        f"{path.name} regressed ({meta.get('note', '')}): "
        + "; ".join(str(f) for f in result.failures))


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_has_triage_note(path):
    _graph, _bindings, meta = load_case(path)
    assert meta.get("note"), "every corpus case must say why it exists"


# ---------------------------------------------------------------------------
# lint replay: the collect-all analyzers over every corpus case
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_lints_clean(path):
    """Every corpus case reports exactly the codes its metadata expects.

    ``verify`` raising on the first defect used to be a blind spot: a case
    exercising several broken invariants only ever pinned the first one.
    The lint replay closes it — the full diagnostic set is compared, so a
    case is a regression both when an expected code disappears *and* when
    a new one appears.  Most cases expect the empty set (they are fixed
    bugs); a case may declare ``expected_lint`` in its metadata.
    """
    from repro.lint import lint_graph

    graph, _bindings, meta = load_case(path)
    sink = lint_graph(graph, assume_ranges=meta.get("assume_ranges"))
    expected = set(meta.get("expected_lint", []))
    assert sink.codes() == expected, (
        f"{path.name}: lint codes {sorted(sink.codes())} != expected "
        f"{sorted(expected)}:\n{sink.render()}")


# ---------------------------------------------------------------------------
# serving replay: compile-failure -> interpreter-quarantine, forever
# ---------------------------------------------------------------------------

SERVING_CASES = [p for p in CASES
                 if load_case(p)[2].get("serving_fault")]


def test_serving_quarantine_case_is_checked_in():
    assert SERVING_CASES, "the serving quarantine corpus case went missing"


@pytest.mark.parametrize("path", SERVING_CASES, ids=lambda p: p.stem)
def test_serving_quarantine_path_replays(path):
    """A permanently failing compile degrades to the fallback, never to
    an error — and quarantine means the pool stops trying.

    The case is hand-minimized to a transpose→matmul pair, where
    ``np.matmul`` rounds a strided view differently from the contiguous
    array codegen materialises: any fallback executor other than the
    compiled host program itself could diverge bitwise here.
    """
    from repro.core import compile_graph
    from repro.device import A10
    from repro.fuzz import CompileFaultInjector, make_inputs
    from repro.runtime import ExecutionEngine
    from repro.serving import (CompileState, ServingEngine, ServingOptions,
                               SignatureCompileCost, VirtualScheduler)

    graph, bindings, meta = load_case(path)
    assert meta["serving_fault"] == "permanent"
    inputs = make_inputs(graph, bindings,
                         seed=int(meta.get("input_seed", 0)))
    executable = compile_graph(graph)
    expected, _ = ExecutionEngine(executable, A10).run(inputs)

    scheduler = VirtualScheduler(seed=0)
    serving = ServingEngine(
        A10, scheduler,
        ServingOptions(compile_cost=SignatureCompileCost(
            fixed_us=1_000.0, per_kernel_us=10.0)),
        compile_fault=CompileFaultInjector(permanent=True))
    serving.register_model("case", executable)
    cold = serving.submit("case", inputs)
    scheduler.run_until_idle()
    pinned = serving.submit("case", inputs)
    scheduler.run_until_idle()

    assert cold.response.ok and cold.response.path == "fallback"
    assert pinned.response.ok and pinned.response.path == "quarantined"
    assert serving.compile_state(
        "case", cold.request.signature) is CompileState.QUARANTINED
    assert serving.pool.stats.jobs_submitted == 1, \
        "quarantine must stop recompilation"
    for response in (cold.response, pinned.response):
        for exp, got in zip(expected, response.outputs):
            assert exp.dtype == got.dtype and exp.shape == got.shape
            assert exp.tobytes() == got.tobytes(), \
                "fallback output not bit-identical to the engine"


def test_multi_defect_graph_reports_all_codes_not_just_the_first():
    """The fail-fast blind spot itself, replayed on a corpus graph.

    Seed three independent defects into one corpus graph; ``verify``
    stops at one of them, the linter must surface all three.
    """
    from repro.ir import f64
    from repro.lint import lint_graph

    for path in CASES:
        graph, _bindings, _meta = load_case(path)
        compute = [n for n in graph.nodes
                   if n.op not in ("parameter", "constant")]
        if len(compute) >= 3:
            break
    compute[0].shape = tuple(99 for _ in compute[0].shape)   # L006 (+L101)
    compute[1].dtype = f64                                   # L006
    compute[2].id = compute[1].id                            # L010
    sink = lint_graph(graph)
    assert {"L006", "L010"} <= sink.codes()
    assert len(sink.by_code("L006")) >= 2, (
        "independent defects must not mask each other:\n" + sink.render())

    with pytest.raises(Exception):
        verify(graph)  # the fail-fast gate sees (at most) one of them


# ---------------------------------------------------------------------------
# batching replay: pad-compatible members batch bit-identically; a faulty
# batched plan quarantines the bucket to solo service
# ---------------------------------------------------------------------------

BATCHING_CASES = [p for p in CASES
                  if load_case(p)[2].get("batching_fault")]


def test_batching_corpus_case_is_checked_in():
    assert BATCHING_CASES, "the batching corpus case went missing"


@pytest.mark.parametrize("path", BATCHING_CASES, ids=lambda p: p.stem)
def test_batched_members_replay_bit_identically(path):
    """Two pad-compatible members (m=3 and m=4 co-bucket at ceiling 4)
    must serve from one batched launch plan with outputs bit-identical
    to direct solo engine runs — softmax over the padded rows makes any
    cross-member slot mixup corrupt visibly."""
    from repro.core import compile_graph
    from repro.device import A10
    from repro.fuzz import make_inputs
    from repro.runtime import ExecutionEngine
    from repro.serving import (BatchingOptions, BatchingServingEngine,
                               ServingOptions, SignatureCompileCost,
                               VirtualScheduler)

    graph, bindings, meta = load_case(path)
    seed = int(meta.get("input_seed", 0))
    small = make_inputs(graph, bindings, seed=seed)
    big = make_inputs(graph, {**bindings, "m": bindings["m"] + 1},
                      seed=seed + 1)
    executable = compile_graph(graph)
    expected = [ExecutionEngine(executable, A10).run(inp)[0]
                for inp in (small, big)]

    scheduler = VirtualScheduler(seed=0)
    serving = BatchingServingEngine(
        A10, scheduler,
        ServingOptions(compile_cost=SignatureCompileCost(
            fixed_us=1_000.0, per_kernel_us=10.0)),
        batching=BatchingOptions(max_batch_size=2,
                                 max_queue_delay_us=500.0))
    entry = serving.register_model("case", executable)
    bucketer = serving.bucketer("case")
    sig = entry.engine.host_program.signature(small)
    assert bucketer.bucket_key(sig) == \
        bucketer.bucket_key(entry.engine.host_program.signature(big))
    entry.engine.prepare_batched(bucketer.padded_signature(sig), 2)

    tickets = [serving.submit("case", small), serving.submit("case", big)]
    scheduler.run_until_idle()
    for ticket, exp in zip(tickets, expected):
        response = ticket.response
        assert response.ok and response.path == "batched"
        assert response.stats.details["batch"]["size"] == 2
        for ref, got in zip(exp, response.outputs):
            assert ref.dtype == got.dtype and ref.shape == got.shape
            assert ref.tobytes() == got.tobytes(), \
                "batched output not bit-identical to the solo engine"


@pytest.mark.parametrize("path", BATCHING_CASES, ids=lambda p: p.stem)
def test_faulty_batched_plan_quarantines_bucket_to_solo(path):
    """A permanent compile fault on the *batched* plan key (solo
    compiles succeed — the fault only fires for signatures carrying the
    extra leading batch dim) must pin the bucket to solo service: no
    batched response ever, no error ever."""
    from repro.core import compile_graph
    from repro.device import A10
    from repro.fuzz import make_inputs
    from repro.runtime import ExecutionEngine
    from repro.serving import (BatchingOptions, BatchingServingEngine,
                               PermanentCompileError, ServingOptions,
                               SignatureCompileCost, VirtualScheduler)

    graph, bindings, meta = load_case(path)
    assert meta["batching_fault"] == "permanent"
    seed = int(meta.get("input_seed", 0))
    inputs = make_inputs(graph, bindings, seed=seed)
    executable = compile_graph(graph)
    expected, _ = ExecutionEngine(executable, A10).run(inputs)
    param_rank = len(executable.graph.params[0].shape)

    def batched_only_fault(model, signature, attempt):
        if len(signature[0][1]) == param_rank + 1:
            raise PermanentCompileError("injected batched-plan fault")

    scheduler = VirtualScheduler(seed=0)
    serving = BatchingServingEngine(
        A10, scheduler,
        ServingOptions(compile_cost=SignatureCompileCost(
            fixed_us=1_000.0, per_kernel_us=10.0)),
        batching=BatchingOptions(max_batch_size=2,
                                 max_queue_delay_us=500.0),
        compile_fault=batched_only_fault)
    serving.register_model("case", executable)

    waves = []
    for start in (0.0, 1e8, 2e8):
        scheduler.call_at(start, lambda: waves.append(
            [serving.submit("case", inputs) for _ in range(2)]))
    scheduler.run_until_idle()

    assert serving.counters["batched_served"] == 0, \
        "quarantined batched key must pin the bucket to solo service"
    assert serving.counters["batches_exploded"] >= 2
    for wave in waves:
        for ticket in wave:
            response = ticket.response
            assert response.ok and response.path != "batched"
            for ref, got in zip(expected, response.outputs):
                assert ref.tobytes() == got.tobytes()


# ---------------------------------------------------------------------------
# fleet replay: a permanent fault quarantines ONE replica, never the fleet
# ---------------------------------------------------------------------------

FLEET_CASES = [p for p in CASES
               if load_case(p)[2].get("fleet_fault")]


def test_fleet_quarantine_case_is_checked_in():
    assert FLEET_CASES, "the fleet replica-quarantine corpus case went missing"


@pytest.mark.parametrize("path", FLEET_CASES, ids=lambda p: p.stem)
def test_fleet_quarantine_stays_on_the_faulted_replica(path):
    """A permanently failing compile on one replica pins *that replica*
    to its eager fallback; its peer compiles normally and serves
    the fast path, and draining the faulted replica hands its traffic
    over without losing or double-serving a request.  Every response —
    quarantined, fallback or fast, before or after the drain — is
    bit-identical to a direct engine run."""
    from repro.core import compile_graph
    from repro.device import A10
    from repro.fuzz import CompileFaultInjector, make_inputs
    from repro.runtime import ExecutionEngine
    from repro.serving import (FleetEngine, FleetOptions, ReplicaState,
                               ServingOptions, SignatureCompileCost,
                               VirtualScheduler)

    graph, bindings, meta = load_case(path)
    assert meta["fleet_fault"] == "permanent"
    inputs = make_inputs(graph, bindings,
                         seed=int(meta.get("input_seed", 0)))
    executable = compile_graph(graph)
    expected, _ = ExecutionEngine(executable, A10).run(inputs)

    scheduler = VirtualScheduler(seed=0)
    fleet = FleetEngine(
        A10, scheduler,
        FleetOptions(
            replicas=2, policy="round_robin",
            serving=ServingOptions(compile_cost=SignatureCompileCost(
                fixed_us=1_000.0, per_kernel_us=10.0))),
        compile_fault_factory=lambda uid: (
            CompileFaultInjector(permanent=True) if uid == 0 else None))
    fleet.register_model("case", executable)

    tickets = []
    for start in (0.0, 1e8):           # cold burst, then warm revisit
        scheduler.call_at(start, lambda: tickets.extend(
            fleet.submit("case", inputs) for _ in range(2)))
    scheduler.call_at(2e8, lambda: fleet.drain("r0", reason="faulted"))
    scheduler.call_at(3e8, lambda: tickets.extend(
        fleet.submit("case", inputs) for _ in range(2)))
    scheduler.run_until_idle()

    r0, r1 = fleet.replica("r0"), fleet.replica("r1")
    sig = tickets[0].request.signature
    assert ("case", sig) in r0.engine.quarantined_signatures(), \
        "the faulted replica must quarantine the signature"
    assert not r1.engine.quarantined_signatures(), \
        "quarantine leaked to a healthy replica"
    assert r0.engine.pool.stats.jobs_submitted == 1, \
        "quarantine must stop recompilation on the faulted replica"
    assert r0.state is ReplicaState.RETIRED and r0.outstanding() == 0
    assert [t.replica for t in tickets[4:]] == ["r1", "r1"], \
        "post-drain traffic must route around the retired replica"

    paths = {name: set() for name in ("r0", "r1")}
    assert len(tickets) == 6
    assert fleet.counters["routed"] == 6
    assert sum(r.engine.counters["ok"]
               for r in fleet.replicas() + fleet.retired) == 6, \
        "a request was lost or double-served across the drain"
    for ticket in tickets:
        response = ticket.response
        assert response.ok
        paths[ticket.replica].add(response.path)
        for ref, got in zip(expected, response.outputs):
            assert ref.dtype == got.dtype and ref.shape == got.shape
            assert ref.tobytes() == got.tobytes(), \
                f"replica {ticket.replica} path {response.path} " \
                "diverged from the direct engine run"
    assert "fast" not in paths["r0"], \
        "the permanently faulted replica can never serve a compiled plan"
    assert "fast" in paths["r1"], \
        "the healthy replica must recover to the fast path"


# ---------------------------------------------------------------------------
# tuning replay: tuner fault -> quarantined search, heuristic plan, OK
# ---------------------------------------------------------------------------

TUNING_CASES = [p for p in CASES
                if load_case(p)[2].get("tuning_fault")]


def test_tuning_fault_case_is_checked_in():
    assert TUNING_CASES, "the tuner-fault corpus case went missing"


@pytest.mark.parametrize("path", TUNING_CASES, ids=lambda p: p.stem)
def test_tuner_fault_quarantines_search_not_service(path):
    """A tuner fault during background compile must cost performance
    only: the compile completes, a heuristic (untuned) plan serves the
    fast path, every response is OK and bit-identical, and the search
    is quarantined per-key — a healthy tuner on a fresh engine still
    tunes the same signature."""
    from repro.core import compile_graph
    from repro.device import A10
    from repro.fuzz import TunerFaultInjector, make_inputs
    from repro.runtime import ExecutionEngine
    from repro.serving import (ServingEngine, ServingOptions,
                               SignatureCompileCost, VirtualScheduler)
    from repro.tuning import TuningOptions

    graph, bindings, meta = load_case(path)
    assert meta["tuning_fault"] == "injected"
    inputs = make_inputs(graph, bindings,
                         seed=int(meta.get("input_seed", 0)))
    executable = compile_graph(graph)
    expected, _ = ExecutionEngine(executable, A10).run(inputs)

    def make_serving(tuning_fault):
        scheduler = VirtualScheduler(seed=0)
        serving = ServingEngine(
            A10, scheduler,
            ServingOptions(
                compile_cost=SignatureCompileCost(
                    fixed_us=1_000.0, per_kernel_us=10.0),
                tuning=TuningOptions(budget_us=250_000.0)),
            tuning_fault=tuning_fault)
        serving.register_model("case", executable)
        return scheduler, serving

    fault = TunerFaultInjector(fault_signatures=1)
    scheduler, serving = make_serving(fault)
    cold = serving.submit("case", inputs)
    scheduler.run_until_idle()
    warm = serving.submit("case", inputs)
    scheduler.run_until_idle()

    assert fault.calls, "the injected tuner fault never fired"
    assert serving.counters["tuning_faults"] == 1
    assert serving.counters["tuned_signatures"] == 0
    assert serving.counters["tuned_served"] == 0
    assert cold.response.ok and cold.response.path == "fallback"
    assert warm.response.ok and warm.response.path == "fast"
    sig = cold.request.signature
    assert ("case", sig) in serving.tuning_quarantined_signatures()
    plan = serving.model("case").engine.peek_plan(sig)
    assert plan is not None and not plan.tuned, \
        "tuner fault must install an untuned heuristic plan"
    for response in (cold.response, warm.response):
        for ref, got in zip(expected, response.outputs):
            assert ref.dtype == got.dtype and ref.shape == got.shape
            assert ref.tobytes() == got.tobytes(), \
                "response under a tuner fault diverged from the engine"

    # The quarantine is per-key, not a property of the signature: the
    # same case on a healthy engine tunes and serves tuned, still
    # bit-identical.
    scheduler, healthy = make_serving(None)
    healthy.submit("case", inputs)
    scheduler.run_until_idle()
    tuned = healthy.submit("case", inputs)
    scheduler.run_until_idle()
    assert healthy.counters["tuned_signatures"] == 1
    assert tuned.response.ok and tuned.response.path == "fast"
    assert healthy.counters["tuned_served"] == 1
    for ref, got in zip(expected, tuned.response.outputs):
        assert ref.tobytes() == got.tobytes(), \
            "tuned response not bit-identical to the heuristic engine"


# ---------------------------------------------------------------------------
# obs replay: pinned engine-level trace (record -> replay taxonomy)
# ---------------------------------------------------------------------------

OBS_CASES = [p for p in CASES
             if load_case(p)[2].get("expected_trace")]


def test_obs_trace_case_is_checked_in():
    assert OBS_CASES, "the obs expected-trace corpus case went missing"


@pytest.mark.parametrize("path", OBS_CASES, ids=lambda p: p.stem)
def test_expected_trace_replays_exactly(path):
    """The span/event sequence of a record->replay pair is part of the
    case's contract: a renamed span, a dropped cache event or a changed
    kernel decomposition on this pinned graph is a regression the
    numeric outputs alone would never catch."""
    from repro.core import compile_graph
    from repro.device import A10
    from repro.fuzz import make_inputs
    from repro.obs import CapturingTracer, trace_failures
    from repro.runtime import ExecutionEngine

    graph, bindings, meta = load_case(path)
    inputs = make_inputs(graph, bindings,
                         seed=int(meta.get("input_seed", 0)))
    tracer = CapturingTracer()
    engine = ExecutionEngine(compile_graph(graph), A10, tracer=tracer)
    engine.run(inputs)
    engine.run(inputs)
    assert tracer.sequence() == meta["expected_trace"], (
        f"{path.name}: trace drifted from the pinned sequence "
        f"({meta.get('expected_trace_scope', '')})")
    assert trace_failures(tracer, pass_names=[]) == []


# ---------------------------------------------------------------------------
# interval replay: one exhibit per L6xx analyzer
# ---------------------------------------------------------------------------

INTERVAL_CASES = {load_case(p)[2].get("interval_code"): p
                  for p in CASES if load_case(p)[2].get("interval_code")}


def test_every_interval_code_has_an_exhibit():
    assert set(INTERVAL_CASES) == {"L601", "L602", "L603", "L604", "L605"}, \
        "an L6xx corpus exhibit went missing"


def test_l601_exhibit_contradiction_comes_from_meta_bounds():
    """The graph itself is clean; the checked-in deployment bounds are
    the defect.  Without them the case must lint empty."""
    from repro.lint import lint_graph

    graph, _bindings, meta = load_case(INTERVAL_CASES["L601"])
    assert not lint_graph(graph).codes()
    sink = lint_graph(graph, assume_ranges=meta["assume_ranges"])
    assert sink.codes() == {"L601"}


def test_l602_exhibit_slot_alias_is_caught_symbolically():
    """Compile the diamond, alias its two simultaneously-live symbolic
    buffers, and the audit must prove the overlap unsound for every
    shape in the class — not merely structurally suspicious (L301)."""
    from repro.core import compile_graph
    from repro.core.symbolic.intervals import derive_intervals
    from repro.lint import check_buffer_plan

    graph, _bindings, _meta = load_case(INTERVAL_CASES["L602"])
    executable = compile_graph(graph)
    plan = executable.buffer_plan
    assert not check_buffer_plan(plan), "planner emitted an unsound plan"
    live = sorted(plan.intervals, key=lambda iv: (iv.start, iv.node_id))
    victims = [iv for iv in live
               if any(o is not iv and o.slot != iv.slot
                      and o.start < iv.end and iv.start < o.end
                      for o in live)]
    assert len(victims) >= 2, "exhibit lost its overlapping lifetimes"
    other = next(o for o in victims if o is not victims[0]
                 and o.slot != victims[0].slot)
    other.slot = victims[0].slot
    sink = check_buffer_plan(plan,
                             imap=derive_intervals(executable.graph))
    assert {"L301", "L602"} <= sink.codes()
    assert "every shape" in sink.by_code("L602")[0].message


def test_l603_exhibit_phantom_symbol_breaks_plan_coverage():
    """The checked-in reshape target is derivable; replacing it with a
    phantom symbol must flag the launch plan as unsound for the class."""
    from repro.core.symbolic.intervals import derive_intervals
    from repro.ir.shapes import SymDim
    from repro.lint import check_plan_coverage

    graph, _bindings, _meta = load_case(INTERVAL_CASES["L603"])
    imap = derive_intervals(graph)
    assert not check_plan_coverage(graph, imap), "clean exhibit regressed"
    reshape = next(n for n in graph.nodes if n.op == "reshape")
    phantom = SymDim("phantom")
    reshape.attrs["new_shape"] = tuple(
        phantom if isinstance(d, SymDim) else d
        for d in reshape.attrs["new_shape"])
    reshape.shape = tuple(
        phantom if isinstance(d, SymDim) else d for d in reshape.shape)
    sink = check_plan_coverage(graph, derive_intervals(graph))
    assert sink.codes() == {"L603"}
    assert "phantom" in sink.by_code("L603")[0].message


def test_l604_exhibit_broken_ceilings_fail_the_padding_audit():
    from repro.core.symbolic.intervals import derive_intervals
    from repro.lint import check_bucket_padding
    from repro.serving.batching import ShapeBucketer

    graph, _bindings, _meta = load_case(INTERVAL_CASES["L604"])
    imap = derive_intervals(graph, assume_ranges={"s": (1, 12)})
    stock = ShapeBucketer(graph, graph.params)
    assert not check_bucket_padding(stock, imap), "stock bucketer flagged"

    class Truncating(ShapeBucketer):
        def ceiling(self, value):
            return min(super().ceiling(value), 8)

    class Wasteful(ShapeBucketer):
        def ceiling(self, value):
            return 4096

    for broken in (Truncating, Wasteful):
        sink = check_bucket_padding(broken(graph, graph.params), imap)
        assert sink.codes() == {"L604"}, broken.__name__


def test_l605_exhibit_fires_and_still_executes():
    """The L605 exhibit is a *live* warning: the division fallback admits
    a zero extent statically, yet every checked-in binding executes —
    warning severity, not error, is the contract."""
    from repro.core.symbolic.intervals import check_dynamic_bindings
    from repro.lint import LintLevel, lint_graph

    graph, bindings, meta = load_case(INTERVAL_CASES["L605"])
    assert meta["expected_lint"] == ["L605"]
    sink = lint_graph(graph)
    assert sink.codes() == {"L605"}
    assert sink.ok(LintLevel.DEFAULT) and not sink.ok(LintLevel.STRICT)
    assert check_dynamic_bindings(graph, bindings) == []


# ---------------------------------------------------------------------------
# symplan replay: the class-wide reuse proof and its fuzz-oracle leg
# ---------------------------------------------------------------------------

MEMPLAN_CASES = [p for p in CASES
                 if load_case(p)[2].get("memplan_fault")]


def test_memplan_exhibit_exists():
    assert MEMPLAN_CASES, "the symplan corpus exhibit went missing"


@pytest.mark.parametrize("path", MEMPLAN_CASES, ids=lambda p: p.stem)
def test_memplan_exhibit_passes_the_memplan_oracle(path):
    """Untampered, the exhibit sails through the full MEMPLAN leg."""
    from repro.fuzz.oracle import MEMPLAN_EXECUTOR

    graph, bindings, meta = load_case(path)
    oracle = DifferentialOracle(memplan=True)
    result = oracle.check_case(graph, bindings,
                               input_seed=int(meta.get("input_seed", 0)))
    assert MEMPLAN_EXECUTOR in result.executors_checked
    assert result.ok, "; ".join(str(f) for f in result.failures)


@pytest.mark.parametrize("path", MEMPLAN_CASES, ids=lambda p: p.stem)
def test_memplan_exhibit_tampered_slot_fails_every_judge(path):
    """Alias the diamond's two simultaneously-live buffers into one slot:
    the plan's own proof, the independent L602 analyzer, and the
    ground-truth memory oracle must all refute the plan — and agree."""
    from repro.core import compile_graph
    from repro.fuzz import make_inputs
    from repro.lint import check_memory_symbolic
    from repro.numerics.resolve import bind_inputs
    from repro.runtime import measure_peak_bytes, plan_symbolic

    graph, bindings, _meta = load_case(path)
    executable = compile_graph(graph)
    symbolic = executable.symbolic_plan
    assert symbolic.verify_sound() == [], "clean exhibit regressed"

    plan = executable.buffer_plan
    live = sorted(plan.intervals, key=lambda iv: (iv.start, iv.node_id))
    victim = next(iv for iv in live
                  if any(o is not iv and o.slot != iv.slot
                         and o.start < iv.end and iv.start < o.end
                         for o in live))
    other = next(o for o in live if o is not victim
                 and o.slot != victim.slot
                 and o.start < victim.end and victim.start < o.end)
    other.slot = victim.slot

    # Judge 1: the plan's own aliasing proof.
    violations = symbolic.verify_sound()
    assert violations and "aliases" in violations[0]
    # Judge 2: the independent L602 analyzer, in agreement.
    sink = check_memory_symbolic(plan, symbolic.imap)
    assert "L602" in sink.codes()
    assert bool(violations) == bool(sink.by_code("L602"))
    # Judge 3: ground truth — the aliased plan now charges fewer bytes
    # than the program provably holds live.
    inputs = make_inputs(graph, bindings, seed=0)
    tampered = plan_symbolic(plan, executable.graph)
    dims = bind_inputs(executable.host_program.params, inputs)
    executable.host_program.resolution.run(dims)
    measured = measure_peak_bytes(executable, inputs)
    assert tampered.peak_at(dims) < measured["measured_peak_bytes"]
