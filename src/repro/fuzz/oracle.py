"""The differential oracle: every executor against the interpreter.

One *case* is a (graph, dim bindings, input seed) triple.  The oracle

1. synthesizes concrete inputs for the bindings (:func:`make_inputs`);
2. evaluates the reference interpreter — the source of numerical truth;
3. compiles the graph through the full optimizing pipeline with
   per-pass IR verification, asserting the structural invariants the lint
   analyzers judge (graph errors, L206, L207, L301);
4. makes the case's one *direct run* on the runtime engine, which every
   other leg compares against, and runs all seven simulated baselines,
   comparing every output against the reference with dtype-aware
   tolerances.

Each *leg* is one ``_check_*`` method.  Any deviation — wrong numbers,
an exception in one executor but not the reference, or a broken
invariant — is recorded as a :class:`Failure` of the leg's executor.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from ..baselines.systems import baseline_names, make_baseline
from ..core.pipeline import CompileOptions, compile_graph
from ..core.symbolic.intervals import check_dynamic_bindings
from ..device.profiles import A10, DeviceProfile
from ..interp.interpreter import evaluate
from ..ir.graph import Graph
from ..ir.shapes import substitute
from ..lint.diagnostics import LintLevel
from ..lint.engine import lint_graph
from ..lint.fusion_checks import check_plan_structure
from ..lint.graph_checks import check_graph
from ..lint.interval_checks import check_memory_symbolic
from ..lint.memory_checks import check_buffer_plan
from ..obs import CapturingTracer, trace_failures
from ..runtime.engine import ExecutionEngine
from ..runtime.symplan import measure_peak_bytes
from ..serving import (BatchingOptions, BatchingServingEngine, FleetEngine,
                       FleetOptions, ReplicaState, ServingEngine,
                       ServingOptions, SignatureCompileCost,
                       VirtualScheduler)
from ..tuning import ScheduleTuner, TuningOptions
from .faults import CompileFaultInjector, TunerFaultInjector

__all__ = ["Failure", "CaseResult", "DifferentialOracle", "make_inputs",
           "compare_arrays", "bit_mismatches", "DISC_EXECUTOR",
           "SERVING_EXECUTOR", "BATCHING_EXECUTOR", "OBS_EXECUTOR",
           "TUNING_EXECUTOR", "FLEET_EXECUTOR", "MEMPLAN_EXECUTOR"]

#: name under which the optimized pipeline appears in results.
DISC_EXECUTOR = "DISC"
#: name under which the serving-runtime replay appears in results.
SERVING_EXECUTOR = "SERVING"
#: name under which the dynamic-batching serving replay appears.
BATCHING_EXECUTOR = "BATCHING"
#: name under which the tracing (observability) oracle appears.
OBS_EXECUTOR = "OBS"
#: name under which the schedule-autotuning oracle appears.
TUNING_EXECUTOR = "TUNING"
#: name under which the multi-replica fleet oracle appears.
FLEET_EXECUTOR = "FLEET"
#: name under which the symbolic-memory-plan oracle appears.
MEMPLAN_EXECUTOR = "MEMPLAN"

#: the policy every serving leg runs under: one compile worker, a short
#: retry backoff and a small per-signature compile cost, so retries,
#: coalescing and quarantine all happen within a few virtual ms.
SERVING_OPTIONS = ServingOptions(
    compile_workers=1, compile_backoff_us=1_000.0,
    compile_cost=SignatureCompileCost(fixed_us=5_000.0,
                                      per_kernel_us=100.0))


def _compile_fault(seed: int) -> CompileFaultInjector:
    """The seed-varied compile-fault schedule of the serving legs: every
    third seed quarantines permanently, every other one eats a transient
    retry first."""
    return CompileFaultInjector(
        transient_attempts=1 if seed % 2 == 0 else 0,
        permanent=seed % 3 == 2)


def _burst_then_late(inputs) -> list:
    """Serving waves: a cold-start burst of two (fallback + in-flight
    coalescing), then a late request once compiles settled."""
    return [(0.0, lambda serving: [serving.submit("case", inputs)
                                   for _ in range(2)]),
            (1e8, lambda serving: [serving.submit("case", inputs)])]


#: (rtol, atol) per dtype name; ints/bools compare exactly.
_TOLERANCES = {
    "f16": (2e-2, 2e-2),
    "f32": (2e-4, 1e-5),
    "f64": (1e-8, 1e-10),
}


def make_inputs(graph: Graph, bindings: Mapping[str, int],
                seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic input arrays for every parameter of ``graph``.

    Floats are drawn from a bounded uniform range (the generator's
    magnitude guards assume |x| <= 2), ints from a small non-negative
    range, bools fairly.
    """
    rng = np.random.default_rng(seed)
    inputs: dict[str, np.ndarray] = {}
    for param in graph.params:
        shape = substitute(param.shape, bindings)
        concrete = tuple(int(d) for d in shape)
        dtype = param.dtype
        if dtype.is_float:
            value = rng.uniform(-2.0, 2.0, size=concrete)
        elif dtype.is_bool:
            value = rng.integers(0, 2, size=concrete)
        else:
            value = rng.integers(0, 4, size=concrete)
        inputs[param.attrs["param_name"]] = value.astype(dtype.to_numpy())
    return inputs


def compare_arrays(reference: np.ndarray, got: np.ndarray,
                   dtype_name: str) -> str | None:
    """None when ``got`` matches ``reference``; else a short description."""
    if reference.shape != got.shape:
        return f"shape {got.shape} != reference {reference.shape}"
    if reference.dtype != got.dtype:
        return f"dtype {got.dtype} != reference {reference.dtype}"
    tol = _TOLERANCES.get(dtype_name)
    if tol is None:
        if not np.array_equal(reference, got):
            bad = int(np.sum(reference != got))
            return f"{bad} element(s) differ (exact dtype {dtype_name})"
        return None
    rtol, atol = tol
    ref_finite = np.isfinite(reference)
    got_finite = np.isfinite(got)
    if not np.array_equal(ref_finite, got_finite):
        return "finite/non-finite pattern differs"
    # Non-finite entries must agree exactly (inf sign, nan-for-nan).
    if not np.array_equal(reference[~ref_finite], got[~got_finite],
                          equal_nan=True):
        return "non-finite values differ"
    a = reference[ref_finite].astype(np.float64)
    b = got[got_finite].astype(np.float64)
    err = np.abs(a - b) - (atol + rtol * np.abs(a))
    if err.size and float(np.max(err)) > 0:
        worst = float(np.max(np.abs(a - b)))
        return f"max abs err {worst:.3e} beyond rtol={rtol}, atol={atol}"
    return None


@dataclass
class Failure:
    """One observed deviation for one executor on one case."""

    executor: str
    kind: str  # mismatch, exception, invariant, lint, interval or trace
    detail: str
    output_index: int | None = None

    def __str__(self) -> str:
        where = "" if self.output_index is None \
            else f" (output {self.output_index})"
        return f"[{self.executor}] {self.kind}{where}: {self.detail}"


def bit_mismatches(expected, outputs, executor: str,
                   detail: str) -> list:
    """Bit-identity of ``outputs`` against ``expected``, as failures.

    The output count is checked first — a path that returns fewer
    outputs is one mismatch, not a silent pass — then every output's
    shape, dtype and bytes; each differing output is one ``mismatch``
    failure carrying ``detail`` and its index.
    """
    if len(outputs) != len(expected):
        return [Failure(executor=executor, kind="mismatch",
                        detail=f"{detail}: {len(outputs)} outputs, "
                               f"expected {len(expected)}")]
    failures = []
    for index, (ref, got) in enumerate(zip(expected, outputs)):
        ref = np.asarray(ref)
        got = np.asarray(got)
        if (ref.shape != got.shape or ref.dtype != got.dtype
                or ref.tobytes() != got.tobytes()):
            failures.append(Failure(executor=executor, kind="mismatch",
                                    detail=detail, output_index=index))
    return failures


@dataclass
class CaseResult:
    """Everything the oracle observed for one (graph, bindings) case."""

    graph: Graph
    bindings: dict
    input_seed: int
    failures: list = field(default_factory=list)
    executors_checked: list = field(default_factory=list)
    ops_covered: set = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_executors(self) -> set:
        return {f.executor for f in self.failures}


class _Leg:
    """One executor's failure recorder for one case."""

    def __init__(self, result: CaseResult, executor: str) -> None:
        self.result = result
        self.executor = executor
        #: True once :meth:`guard` recorded an escaped exception.
        self.raised = False

    def fail(self, kind: str, detail: str,
             output_index: int | None = None) -> None:
        self.result.failures.append(
            Failure(self.executor, kind, detail, output_index))

    def check(self, ok: bool, detail: str) -> None:
        """Record an ``invariant`` failure unless ``ok``."""
        if not ok:
            self.fail("invariant", detail)

    @contextmanager
    def guard(self, prefix: str = "", kind: str = "exception"):
        """Record an exception escaping the block as this leg's failure
        (``prefix`` names the step) and set :attr:`raised`."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - the fuzzer must survive
            self.fail(kind, f"{prefix}{type(exc).__name__}: {exc}")
            self.raised = True

    def bits(self, expected, outputs, detail: str) -> None:
        self.result.failures.extend(
            bit_mismatches(expected, outputs, self.executor, detail))

    def compare(self, reference, outputs, graph: Graph) -> None:
        """Outputs against the interpreter, with dtype tolerances."""
        if len(outputs) != len(reference):
            self.fail("mismatch", f"{len(outputs)} outputs != "
                                  f"reference {len(reference)}")
            return
        for index, (ref, got) in enumerate(zip(reference, outputs)):
            detail = compare_arrays(np.asarray(ref), np.asarray(got),
                                    graph.outputs[index].dtype.name)
            if detail is not None:
                self.fail("mismatch", detail, index)


@dataclass
class _Case:
    """One case's fixture, shared by every leg.

    It holds the case's executable and its one *direct run*: an
    untraced engine on which the pipeline leg makes the record call
    (and, for the obs leg, the replay call), and which every other leg
    compares against instead of re-running the case.  A direct run that
    raised is kept and re-raised to each leg that asks, so every
    dependent leg records the same exception.
    """

    graph: Graph
    inputs: dict
    result: CaseResult
    executable: object = None
    engine: ExecutionEngine | None = None
    #: ``(outputs, stats)`` of the record call, then the replay call.
    runs: list = field(default_factory=list)
    error: Exception | None = None

    def leg(self, executor: str) -> _Leg:
        """The recorder of a leg that counts as a checked executor."""
        self.result.executors_checked.append(executor)
        return _Leg(self.result, executor)

    def direct(self, inputs=None, call: int = 0) -> tuple:
        """``(outputs, stats)`` of the direct run: the record (``call``
        0) or replay (1) call of the case's own inputs, or a run on the
        direct engine of other ``inputs``."""
        if len(self.runs) <= call:
            raise self.error
        if inputs is None or inputs is self.inputs:
            return self.runs[call]
        return self.engine.run(inputs)


def _compile(graph: Graph, **options):
    """Compile with per-pass IR verification, as every leg does."""
    return compile_graph(graph, CompileOptions(verify_each_pass=True,
                                               **options))


def _invariant_diagnostics(executable) -> list:
    """The pipeline's structural invariants, as the lint analyzers judge
    them: graph errors (the graph analyzer), an acyclic (L206) total
    partition (L207) of the compute nodes (the fusion auditor), and no
    slot shared between overlapping live ranges (L301)."""
    fusion = check_plan_structure(executable.plan)
    return (check_graph(executable.graph).errors()
            + fusion.by_code("L206") + fusion.by_code("L207")
            + check_buffer_plan(executable.buffer_plan).by_code("L301"))


@dataclass
class DifferentialOracle:
    """Checks cases against the interpreter across all executors.

    The pipeline leg and the seven baselines (``baselines``, default
    all) always run; ``lint_level`` (not OFF) and each of ``serving``,
    ``batching``, ``obs``, ``tuning``, ``fleet`` and ``memplan`` add the
    leg its ``_check_*`` method documents.
    """

    device: DeviceProfile = A10
    baselines: tuple | None = None
    lint_level: LintLevel = LintLevel.OFF
    serving: bool = False
    batching: bool = False
    obs: bool = False
    tuning: bool = False
    fleet: bool = False
    memplan: bool = False

    def __post_init__(self) -> None:
        self.baselines = tuple(self.baselines) \
            if self.baselines is not None else tuple(baseline_names())

    # -- single case -------------------------------------------------------

    def check_case(self, graph: Graph, bindings: Mapping[str, int],
                   input_seed: int = 0) -> CaseResult:
        result = CaseResult(graph=graph, bindings=dict(bindings),
                            input_seed=input_seed,
                            ops_covered={n.op for n in graph.nodes})
        if self.lint_level is not LintLevel.OFF:
            self._check_lint(graph, bindings, result)
        setup = _Leg(result, "inputs")
        with setup.guard():
            inputs = make_inputs(graph, bindings, input_seed)
        if setup.raised:
            return result
        setup = _Leg(result, "interpreter")
        with setup.guard():
            reference = [np.asarray(v) for v in evaluate(graph, inputs)]
        if setup.raised:
            return result

        case = _Case(graph, inputs, result)
        self._check_pipeline(case, reference)
        if case.executable is not None:
            for enabled, check in ((self.serving, self._check_serving),
                                   (self.batching, self._check_batching),
                                   (self.tuning, self._check_tuning),
                                   (self.fleet, self._check_fleet),
                                   (self.memplan, self._check_memplan)):
                if enabled:
                    check(case)
        if self.obs:
            self._check_obs(case)
        self._check_baselines(case, reference)
        return result

    # -- static analysis ---------------------------------------------------

    def _check_lint(self, graph: Graph, bindings,
                    result: CaseResult) -> None:
        """Lint the generated graph and cross-check the interval engine.

        The raw generated graph legitimately carries dead code (DCE has
        not run yet), so only error-severity findings gate here; the
        chosen level applies in full to the pipeline artifacts
        (:meth:`_check_pipeline`).  Every concrete value this case binds
        or derives must lie inside the statically derived interval for
        its symbol — a violation means the L6xx abstraction is unsound,
        the one defect the analyzers themselves cannot see.
        """
        leg = _Leg(result, "lint")
        for diag in lint_graph(graph).failures(LintLevel.DEFAULT):
            leg.fail("lint", f"generated graph: {diag}")
        with leg.guard("interval cross-check crashed: ", kind="interval"):
            for detail in check_dynamic_bindings(graph, bindings):
                leg.fail("interval",
                         f"static/dynamic disagreement: {detail}")

    # -- optimized pipeline ------------------------------------------------

    def _check_pipeline(self, case: _Case, reference) -> None:
        """Compile, assert the invariants, and make the direct run.

        The graph compiles with per-pass IR verification; the result
        must pass :func:`_invariant_diagnostics` and, when linting, the
        chosen lint level.  The case's one direct run is made
        here and its record call compared against the interpreter.
        """
        leg = case.leg(DISC_EXECUTOR)
        with leg.guard("compile: "):
            executable = case.executable = _compile(
                case.graph, lint_level=self.lint_level)
        if leg.raised:
            return
        for diag in _invariant_diagnostics(executable):
            leg.fail("invariant", str(diag))
        if executable.report.lint is not None:
            for diag in executable.report.lint.failures(self.lint_level):
                leg.fail("lint", f"pipeline artifacts: {diag}")
        try:
            case.engine = ExecutionEngine(executable, self.device)
            for _ in range(2 if self.obs else 1):
                case.runs.append(case.engine.run(case.inputs))
        except Exception as exc:  # noqa: BLE001 - re-raised per leg
            case.error = exc
        with leg.guard("run: "):
            outputs, _stats = case.direct()
        if not leg.raised:
            leg.compare(reference, outputs, case.graph)

    # -- serving runtime ---------------------------------------------------

    def _serve(self, leg: _Leg, case: _Case, build: Callable,
               waves: list, label: Callable = lambda ticket: (
                   f"request {ticket.request.id}")):
        """The one driver every serving leg runs its waves through.

        ``build(scheduler)`` returns the engine under test (serving,
        batching or fleet) on a virtual scheduler seeded from the case;
        the case's executable is registered on it as model ``"case"``.
        Each wave ``(at_us, action)`` runs ``action(engine)`` at that
        virtual time, which returns the tickets it submitted (or None).
        Every ticket must resolve OK and bit-identical to the direct run
        of its inputs; ``label(ticket)`` names it in failure details.

        Returns the engine for the leg's own invariants, or None after
        an exception escaped.
        """
        tickets: list = []
        with leg.guard():
            scheduler = VirtualScheduler(seed=case.result.input_seed)
            engine = build(scheduler)
            engine.register_model("case", case.executable)
            for at_us, action in waves:
                scheduler.call_at(at_us, lambda act=action: tickets.extend(
                    act(engine) or ()))
            scheduler.run_until_idle()
            expected = [case.direct(ticket.request.inputs)[0]
                        for ticket in tickets]
        if leg.raised:
            return None
        for ticket, want in zip(tickets, expected):
            request = label(ticket)
            response = ticket.response
            if response is None or not response.ok:
                status = "unresolved" if response is None \
                    else response.status.value
                leg.fail("exception", f"{request} ended {status}, "
                                      f"expected ok")
                continue
            leg.bits(want, response.outputs,
                     f"{request} path {response.path!r} not bit-identical "
                     f"to a direct engine run")
        return engine

    def _check_serving(self, case: _Case) -> None:
        """Replay the case through the serving runtime with faults.

        The fault schedule varies deterministically with the input seed
        (every third case quarantines permanently, every other one eats
        a transient retry first), so the campaign exercises the fast,
        fallback and quarantined paths.  The contract is strict: every
        response is OK and bit-identical to the direct run.
        """
        fault = _compile_fault(case.result.input_seed)
        self._serve(
            case.leg(SERVING_EXECUTOR), case,
            lambda scheduler: ServingEngine(
                self.device, scheduler, SERVING_OPTIONS,
                compile_fault=fault),
            _burst_then_late(case.inputs))

    # -- multi-replica fleet -----------------------------------------------

    def _check_fleet(self, case: _Case) -> None:
        """Drive a replica fleet through the case with per-replica faults.

        Routing policy and replica count vary with the seed; replica
        ``r0`` carries a seeded compile-fault schedule (and, every
        fourth seed, a tuner-fault schedule on top of budgeted tuning)
        while the other replicas stay clean, and ``r0`` is drained
        mid-stream.  The invariants: every request resolves OK and
        bit-identical to the direct run, none is lost or double-served
        across the scale-down, and quarantine never leaks off the
        faulted replica.
        """
        leg = case.leg(FLEET_EXECUTOR)
        seed = case.result.input_seed
        policy = ("affinity", "round_robin",
                  "least_outstanding")[seed % 3]
        tune = seed % 4 == 3
        fault = _compile_fault(seed)
        options = FleetOptions(
            replicas=2 + seed % 2, policy=policy,
            serving=replace(SERVING_OPTIONS, tuning=(
                TuningOptions(budget_us=2_000.0) if tune else None)))
        # A cold burst across the fleet, a scale-down mid-stream, then
        # a late wave that must survive the retired replica.
        fleet = self._serve(
            leg, case,
            lambda scheduler: FleetEngine(
                self.device, scheduler, options,
                compile_fault_factory=lambda uid: (
                    fault if uid == 0 else None),
                tuning_fault_factory=(lambda uid: (
                    TunerFaultInjector() if uid == 0 else None))
                if tune else None),
            [(0.0, lambda fleet: [fleet.submit("case", case.inputs)
                                  for _ in range(3)]),
             (5e7, lambda fleet: fleet.drain("r0")),
             (1e8, lambda fleet: [fleet.submit("case", case.inputs)
                                  for _ in range(3)])],
            label=lambda ticket: (f"fleet request {ticket.seq} on "
                                  f"replica {ticket.replica!r}"))
        if fleet is None:
            return
        counters = fleet.stats()["requests"]
        leg.check(counters["submitted"] == 6 and counters["ok"] == 6,
                  f"{counters['submitted']} submitted / "
                  f"{counters['ok']} ok across scale-down, "
                  "expected 6/6 (lost or double-served)")
        drained = fleet.replica("r0")
        leg.check(drained.state is ReplicaState.RETIRED
                  and drained.outstanding() == 0,
                  f"drained replica ended {drained.state.value} "
                  f"with {drained.outstanding()} outstanding")
        for replica in fleet.replicas() + fleet.retired:
            if replica.name == "r0":
                continue
            leaked = (replica.engine.quarantined_signatures()
                      | replica.engine.tuning_quarantined_signatures())
            leg.check(not leaked,
                      f"quarantine leaked off the faulted replica onto "
                      f"{replica.name}: {sorted(leaked)[:1]}")

    # -- symbolic memory plan ------------------------------------------------

    def _check_memplan(self, case: _Case) -> None:
        """Audit the symbolic (class-wide) memory plan on this case.

        Five contracts: (1) *exactness* — the class plan's frozen slot
        expressions price this binding exactly like the concrete plan
        (``peak_at(dims) == evaluate(dims)["peak_bytes"]``) and the
        class peak interval contains the result; (2) *soundness* — the
        ground-truth oracle (:func:`~repro.runtime.symplan.
        measure_peak_bytes`) never observes more live bytes than the
        plan charges, and its replayed outputs are bit-identical to the
        direct run; (3) the plan's own aliasing proof (``verify_sound``)
        is clean; (4) *cross-check* — the independent L602 analyzer
        reaches the same verdict (the two implement one judgement
        separately; disagreement means one is wrong); (5) *reorder
        differential* — recompiling under the peak-aware reorder pass
        yields bit-identical outputs with a sound plan: the pass changes
        cost estimates only, never numerics or plan soundness.
        """
        leg = case.leg(MEMPLAN_EXECUTOR)
        executable, inputs = case.executable, case.inputs
        symbolic = executable.symbolic_plan
        with leg.guard():
            dims = executable.host_program.bind(inputs)
            expected, _stats = case.direct()
            peak = symbolic.peak_at(dims)
            charged = executable.buffer_plan.evaluate(dims)["peak_bytes"]
            measured = measure_peak_bytes(executable, inputs)
        if leg.raised:
            return
        leg.check(peak == charged,
                  f"class plan prices this binding at {peak} bytes but "
                  f"the concrete plan charges {charged} — the frozen "
                  f"slot expressions drifted from the slot assignment")
        interval = symbolic.peak_fact.interval
        leg.check(interval.lo is None or peak >= interval.lo,
                  f"in-class peak {peak} below the class interval lower "
                  f"bound {interval.lo}")
        leg.check(interval.hi is None or peak <= interval.hi,
                  f"in-class peak {peak} exceeds the *proven* class "
                  f"upper bound {interval.hi} — the interval abstraction "
                  f"is unsound")
        leg.check(measured["measured_peak_bytes"] <= peak,
                  f"ground truth observed {measured['measured_peak_bytes']}"
                  f" live bytes but the class plan charges only {peak} — "
                  f"the reuse plan under-provisions this binding")
        leg.bits(expected, measured["outputs"],
                 "memory-oracle replay not bit-identical to a direct "
                 "engine run")
        own = symbolic.verify_sound()
        analyzer = check_memory_symbolic(executable.buffer_plan,
                                         symbolic.imap).by_code("L602")
        for violation in own:
            leg.fail("invariant", f"aliasing proof failed: {violation}")
        for diag in analyzer:
            leg.fail("invariant", f"L602 analyzer: {diag}")
        leg.check(bool(own) == bool(analyzer),
                  f"planner proof and L602 disagree ({len(own)} vs "
                  f"{len(analyzer)} findings) — one of the two "
                  f"independent judgements is wrong")

        with leg.guard("reorder recompile: "):
            reordered = _compile(case.graph, reorder_for_memory=True)
            outputs, _ = ExecutionEngine(reordered, self.device).run(
                inputs)
        if leg.raised:
            return
        leg.bits(expected, outputs,
                 "peak-aware reorder changed numerics — the pass must "
                 "only move schedule cost")
        for violation in reordered.symbolic_plan.verify_sound():
            leg.fail("invariant", f"reordered plan aliasing proof "
                                  f"failed: {violation}")

    # -- dynamic batching --------------------------------------------------

    def _check_batching(self, case: _Case) -> None:
        """Replay the case through the batching engine with faults.

        Three waves on the virtual clock: a cold burst (the batch
        explodes to solo fallbacks while the batched plan compiles in
        the background), a warm burst (served by one batched launch —
        unless a permanent fault quarantined the batched key, which must
        pin the bucket to solo service), and a late lone request (a
        single-member flush takes the ordinary solo path).  The contract
        is strict: every response is OK and bit-identical to the direct
        run of its inputs — and because each member carries *distinct*
        float payloads of the same signature, any cross-member
        contamination inside a batch shows up here as a bit mismatch
        (identical members would hide it).
        """
        leg = case.leg(BATCHING_EXECUTOR)
        seed = case.result.input_seed
        permanent = seed % 3 == 2
        # Same signature (co-buckets with the others), different float
        # payloads; integer tensors (gather indices, masks) stay
        # untouched so they remain valid.
        members = [case.inputs] + [
            {name: value + value.dtype.type(0.125) * index
             if np.issubdtype(value.dtype, np.floating) else value
             for name, value in case.inputs.items()}
            for index in range(1, 7)]
        fault = _compile_fault(seed)
        serving = self._serve(
            leg, case,
            lambda scheduler: BatchingServingEngine(
                self.device, scheduler, SERVING_OPTIONS,
                batching=BatchingOptions(max_batch_size=4,
                                         max_queue_delay_us=2_000.0),
                compile_fault=fault),
            [(0.0, lambda serving: [serving.submit("case", m)
                                    for m in members[0:3]]),
             (1e8, lambda serving: [serving.submit("case", m)
                                    for m in members[3:6]]),
             (2e8, lambda serving: [serving.submit("case", members[6])])])
        if serving is None:
            return
        batched = serving.counters["batched_served"]
        leg.check(not (permanent and batched),
                  f"{batched} batched response(s) despite a permanent "
                  f"compile fault — quarantine must pin the bucket to "
                  f"solo service")
        leg.check(permanent or batched,
                  "warm burst never took the batched path")

    # -- schedule autotuning -----------------------------------------------

    def _check_tuning(self, case: _Case) -> None:
        """Run the schedule autotuner against its three contracts.

        (1) *Correctness*: a tuned plan's outputs are bit-identical to
        the heuristic plan's (the direct run) — schedules move simulated
        cost, never numerics — and its simulated device time is never
        higher.  The tuned plan is frozen on an engine of its own, so
        the direct engine keeps its heuristic plans.
        (2) *Determinism*: an independent tuner with the same signature
        and budget reaches the same winners for the same spend, and
        spend never exceeds the budget (seeds alternate a generous and
        a starvation budget to cover the exhaustion path).
        (3) *Isolation*: on every third seed, a serving run with an
        injected tuner fault must quarantine the search only — the
        compile completes, the installed plan is untuned, and every
        response is OK and bit-identical.
        """
        leg = case.leg(TUNING_EXECUTOR)
        executable, inputs = case.executable, case.inputs
        seed = case.result.input_seed
        options = TuningOptions(
            budget_us=250_000.0 if seed % 2 == 0 else 2_000.0)
        with leg.guard():
            heur_out, heur_stats = case.direct()
            signature = executable.host_program.signature(inputs)
            tuned = ScheduleTuner(self.device, options).tune(
                executable, signature)
            engine = ExecutionEngine(executable, self.device)
            engine.prepare(inputs, signature, selector=tuned.selector())
            tuned_out, tuned_stats = engine.run(inputs)
            again = ScheduleTuner(self.device, options).tune(
                executable, signature)
        if leg.raised:
            return
        leg.bits(heur_out, tuned_out,
                 "tuned plan not bit-identical to heuristic plan")
        leg.check(tuned_stats.device_time_us
                  <= heur_stats.device_time_us * (1 + 1e-12),
                  f"tuned plan slower than heuristic "
                  f"({tuned_stats.device_time_us:.3f}us > "
                  f"{heur_stats.device_time_us:.3f}us)")
        leg.check(tuned.spent_us <= tuned.budget_us,
                  f"search spent {tuned.spent_us:.0f}us over its "
                  f"{tuned.budget_us:.0f}us budget")
        leg.check(tuned.pick_names() == again.pick_names()
                  and tuned.spent_us == again.spent_us,
                  "tuning not deterministic: same signature and budget "
                  "produced different winners or spend")
        if seed % 3 != 2:
            return
        # Tuner fault under serving: quarantine the search, serve on.
        serving = self._serve(
            leg, case,
            lambda scheduler: ServingEngine(
                self.device, scheduler,
                replace(SERVING_OPTIONS, tuning=options),
                tuning_fault=TunerFaultInjector(fault_signatures=99)),
            _burst_then_late(inputs),
            label=lambda ticket: (f"request {ticket.request.id} under a "
                                  f"tuner fault"))
        if serving is None:
            return
        leg.check(serving.counters["tuning_faults"] >= 1,
                  "injected tuner fault never fired")
        plan = serving.model("case").engine.peek_plan(signature)
        leg.check(plan is not None and not plan.tuned,
                  "tuner fault must install an untuned heuristic plan")

    # -- tracing oracle ----------------------------------------------------

    def _check_obs(self, case: _Case) -> None:
        """Re-run compile + record + replay under a CapturingTracer.

        Three contracts: (1) outputs are bit-identical to the direct
        run's record and replay calls; (2) the simulated ``RunStats``
        are equal field for field on both calls; (3) the recorded trace
        satisfies the structural invariants in
        :mod:`repro.obs.invariants`.  When the untraced compile failed,
        the traced one must fail too.
        """
        leg = case.leg(OBS_EXECUTOR)
        tracer = CapturingTracer()
        if case.executable is None:
            with suppress(Exception):  # the traced compile must fail too
                _compile(case.graph, tracer=tracer)
                leg.fail("trace", "compile succeeded under tracing but "
                                  "failed untraced")
            return
        with leg.guard():
            plain = [case.direct(), case.direct(call=1)]
            engine = ExecutionEngine(_compile(case.graph, tracer=tracer),
                                     self.device, tracer=tracer)
            traced = [engine.run(case.inputs), engine.run(case.inputs)]
        if leg.raised:
            return
        for call, ((ref_out, ref_stats), (got_out, got_stats)) in \
                enumerate(zip(plain, traced)):
            leg.bits(ref_out, got_out, f"call {call}: traced output not "
                                       f"bit-identical to untraced run")
            if ref_stats != got_stats:
                leg.fail("mismatch", f"call {call}: traced RunStats differ "
                                     f"from untraced ({got_stats} != "
                                     f"{ref_stats})")
        for detail in trace_failures(tracer):
            leg.fail("trace", detail)

    # -- baselines ---------------------------------------------------------

    def _check_baselines(self, case: _Case, reference) -> None:
        """Each simulated baseline's outputs against the interpreter."""
        for name in self.baselines:
            leg = case.leg(name)
            with leg.guard():
                outputs, _stats = make_baseline(
                    name, case.graph, self.device).run(case.inputs)
            if not leg.raised:
                leg.compare(reference, outputs, case.graph)
