"""The differential oracle: every executor against the interpreter.

One *case* is a (graph, dim bindings, input seed) triple.  The oracle

1. synthesizes concrete inputs for the bindings (:func:`make_inputs`);
2. evaluates the reference interpreter — the source of numerical truth;
3. compiles the graph through the full optimizing pipeline with
   per-pass IR verification, asserting the structural invariants (fusion
   plan is an acyclic total partition, buffer plan never shares a slot
   between overlapping live ranges);
4. runs the compiled executable on the runtime engine and all seven
   simulated baselines, comparing every output against the reference with
   dtype-aware tolerances.

Any deviation — wrong numbers, an exception in one executor but not the
reference, or a broken invariant — is recorded as a :class:`Failure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..baselines.systems import baseline_names, make_baseline
from ..core.pipeline import CompileOptions, compile_graph
from ..device.profiles import A10, DeviceProfile
from ..interp.interpreter import evaluate
from ..ir.graph import Graph
from ..ir.shapes import substitute
from ..ir.verifier import verify
from ..lint.diagnostics import LintLevel
from ..lint.engine import lint_graph
from ..runtime.engine import ExecutionEngine

__all__ = ["Failure", "CaseResult", "DifferentialOracle", "make_inputs",
           "compare_arrays", "DISC_EXECUTOR", "SERVING_EXECUTOR",
           "BATCHING_EXECUTOR", "OBS_EXECUTOR", "TUNING_EXECUTOR",
           "FLEET_EXECUTOR", "MEMPLAN_EXECUTOR"]

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
    kind: str        # "mismatch" | "exception" | "invariant"
    detail: str
    output_index: int | None = None

    def __str__(self) -> str:
        where = "" if self.output_index is None \
            else f" (output {self.output_index})"
        return f"[{self.executor}] {self.kind}{where}: {self.detail}"


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


class DifferentialOracle:
    """Checks cases against the interpreter across all executors."""

    def __init__(self, device: DeviceProfile = A10,
                 baselines: tuple | None = None,
                 check_invariants: bool = True,
                 lint_level: LintLevel = LintLevel.OFF,
                 serving: bool = False,
                 batching: bool = False,
                 obs: bool = False,
                 tuning: bool = False,
                 fleet: bool = False,
                 memplan: bool = False) -> None:
        self.device = device
        self.baselines = tuple(baselines) if baselines is not None \
            else tuple(baseline_names())
        self.check_invariants = check_invariants
        #: when True, every case is additionally replayed through the
        #: serving runtime (repro.serving) under a virtual scheduler
        #: seeded from the case, with injected compile faults; every
        #: response must arrive OK and be *bit-identical* to a direct
        #: ExecutionEngine run of the same inputs.
        self.serving = serving
        #: when True, every case is additionally replayed through the
        #: *dynamic-batching* serving engine: bursts that co-bucket and
        #: batch, a late lone request that serves solo, and injected
        #: compile faults against the batched plan key.  Every response
        #: must arrive OK and bit-identical to a direct engine run (no
        #: cross-member contamination inside a batch), and a permanent
        #: fault must pin the bucket to solo service via quarantine.
        self.batching = batching
        #: when not OFF, the static-analysis suite (repro.lint) runs on
        #: every case — the generated graph before compilation and the
        #: full pipeline artifacts after — and any failing diagnostic is
        #: an oracle failure of kind "lint" (a second, independent oracle
        #: beside the numeric comparison).
        self.lint_level = lint_level
        #: when True, every case additionally recompiles and re-runs the
        #: pipeline under a CapturingTracer: outputs and RunStats must be
        #: bit-identical to the untraced run, and the recorded trace must
        #: satisfy the structural invariants (balanced spans, parent
        #: containment, pass coverage, kernel accounting) — a third
        #: oracle asserting on system *behavior*, not just numbers.
        self.obs = obs
        #: when True, every case additionally runs the schedule
        #: autotuner: tuned plans must be bit-identical to heuristic
        #: plans (schedules change cost, never numerics), never slower
        #: on simulated device time, deterministic (same signature and
        #: budget => same winners, same spend), and within budget — and,
        #: seed-varied, a serving run with an injected tuner fault must
        #: quarantine the search while every response stays OK.
        self.tuning = tuning
        #: when True, every case additionally drives a multi-replica
        #: fleet (routing policy and replica count varied by seed) with
        #: seeded *per-replica* compile and tuner fault schedules and a
        #: mid-stream replica drain.  Invariants: no request is lost or
        #: double-served across the scale-down, quarantine stays
        #: confined to the faulted replica, and every response is OK
        #: and bit-identical to a direct engine run.
        self.fleet = fleet
        #: when True, every case additionally audits the symbolic
        #: (class-wide) memory plan: the frozen slot expressions must
        #: price the case's binding exactly like the concrete plan, the
        #: class peak interval must contain it, the ground-truth oracle
        #: (``measure_peak_bytes``) must never observe more live bytes
        #: than the plan charges, the plan's own aliasing proof and the
        #: independent L602 analyzer must both be clean *and agree*,
        #: and a recompile under the peak-aware reorder pass must stay
        #: bit-identical.
        self.memplan = memplan

    # -- single case -------------------------------------------------------

    def check_case(self, graph: Graph, bindings: Mapping[str, int],
                   input_seed: int = 0) -> CaseResult:
        result = CaseResult(graph=graph, bindings=dict(bindings),
                            input_seed=input_seed,
                            ops_covered={n.op for n in graph.nodes})
        if self.lint_level is not LintLevel.OFF:
            # The raw generated graph legitimately carries dead code (DCE
            # has not run yet), so only error-severity findings gate here;
            # the chosen level applies in full to the pipeline artifacts.
            for diag in lint_graph(graph).failures(LintLevel.DEFAULT):
                result.failures.append(Failure(
                    executor="lint", kind="lint",
                    detail=f"generated graph: {diag}"))
            # Dynamic cross-check of the interval engine: every concrete
            # value this case actually binds/derives must lie inside the
            # statically derived interval for its symbol — a violation
            # means the L6xx abstraction is unsound, the one defect the
            # analyzers themselves cannot see.
            try:
                from ..core.symbolic.intervals import \
                    check_dynamic_bindings
                for detail in check_dynamic_bindings(graph, bindings):
                    result.failures.append(Failure(
                        executor="lint", kind="interval",
                        detail=f"static/dynamic disagreement: {detail}"))
            except Exception as exc:  # noqa: BLE001 - unbindable case
                result.failures.append(Failure(
                    executor="lint", kind="interval",
                    detail=f"interval cross-check crashed: "
                           f"{type(exc).__name__}: {exc}"))
        try:
            inputs = make_inputs(graph, bindings, input_seed)
        except Exception as exc:  # noqa: BLE001 - unbindable case
            result.failures.append(Failure(
                executor="inputs", kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return result
        try:
            reference = [np.asarray(v) for v in evaluate(graph, inputs)]
        except Exception as exc:  # noqa: BLE001 - the fuzzer must survive
            result.failures.append(Failure(
                executor="interpreter", kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return result

        executable = self._check_pipeline(graph, inputs, reference, result)
        if self.serving and executable is not None:
            self._check_serving(inputs, executable, result)
        if self.batching and executable is not None:
            self._check_batching(inputs, executable, result)
        if self.tuning and executable is not None:
            self._check_tuning(inputs, executable, result)
        if self.fleet and executable is not None:
            self._check_fleet(inputs, executable, result)
        if self.memplan and executable is not None:
            self._check_memplan(graph, inputs, executable, result)
        if self.obs:
            self._check_obs(graph, inputs, executable, result)
        self._check_baselines(graph, inputs, reference, result)
        del executable
        return result

    # -- optimized pipeline ------------------------------------------------

    def _check_pipeline(self, graph: Graph, inputs, reference,
                        result: CaseResult):
        result.executors_checked.append(DISC_EXECUTOR)
        options = CompileOptions(verify_each_pass=self.check_invariants,
                                 lint_level=self.lint_level)
        try:
            executable = compile_graph(graph, options)
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=DISC_EXECUTOR, kind="exception",
                detail=f"compile: {type(exc).__name__}: {exc}"))
            return None
        if self.check_invariants:
            for failure in self._invariant_failures(executable):
                result.failures.append(failure)
        if executable.report.lint is not None:
            for diag in executable.report.lint.failures(self.lint_level):
                result.failures.append(Failure(
                    executor=DISC_EXECUTOR, kind="lint",
                    detail=f"pipeline artifacts: {diag}"))
        try:
            engine = ExecutionEngine(executable, self.device)
            outputs, _stats = engine.run(inputs)
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=DISC_EXECUTOR, kind="exception",
                detail=f"run: {type(exc).__name__}: {exc}"))
            return executable
        self._compare(DISC_EXECUTOR, graph, reference, outputs, result)
        return executable

    def _invariant_failures(self, executable) -> list[Failure]:
        failures: list[Failure] = []
        try:
            verify(executable.graph)
        except Exception as exc:  # noqa: BLE001
            failures.append(Failure(
                executor=DISC_EXECUTOR, kind="invariant",
                detail=f"post-pipeline verify: {exc}"))
        try:
            ordered = executable.plan.ordered_groups()
            planned = {m for g in ordered for m in g.members}
            computed = {n for n in executable.graph.nodes
                        if n.op not in ("parameter", "constant")}
            missing = computed - planned
            if missing:
                failures.append(Failure(
                    executor=DISC_EXECUTOR, kind="invariant",
                    detail=f"fusion plan misses nodes: "
                           f"{sorted(n.short() for n in missing)}"))
        except Exception as exc:  # noqa: BLE001
            failures.append(Failure(
                executor=DISC_EXECUTOR, kind="invariant",
                detail=f"fusion plan not acyclic: {exc}"))
        if executable.buffer_plan is not None:
            try:
                executable.buffer_plan.verify_no_overlap_sharing()
            except Exception as exc:  # noqa: BLE001
                failures.append(Failure(
                    executor=DISC_EXECUTOR, kind="invariant",
                    detail=f"buffer plan: {exc}"))
        return failures

    # -- serving runtime ---------------------------------------------------

    def _check_serving(self, inputs, executable,
                       result: CaseResult) -> None:
        """Replay the case through the serving runtime with faults.

        The fault schedule varies deterministically with the input seed
        (every third case quarantines permanently, every other one eats
        a transient retry first), so the campaign exercises the fast,
        fallback and quarantined paths.  The contract is strict: every
        response is OK and bit-identical to a direct engine run.
        """
        from ..serving import (ServingEngine, ServingOptions,
                               SignatureCompileCost, VirtualScheduler)
        from .faults import CompileFaultInjector

        result.executors_checked.append(SERVING_EXECUTOR)
        seed = result.input_seed
        try:
            expected, _ = ExecutionEngine(executable, self.device).run(
                inputs)
            fault = CompileFaultInjector(
                transient_attempts=1 if seed % 2 == 0 else 0,
                permanent=seed % 3 == 2)
            scheduler = VirtualScheduler(seed=seed)
            serving = ServingEngine(
                self.device, scheduler,
                ServingOptions(
                    compile_workers=1,
                    compile_backoff_us=1_000.0,
                    compile_cost=SignatureCompileCost(
                        fixed_us=5_000.0, per_kernel_us=100.0)),
                compile_fault=fault)
            serving.register_model("case", executable)
            tickets: list = []
            # A cold-start burst (fallback + in-flight coalescing), then
            # a late request once compiles settled (fast or quarantined).
            scheduler.call_at(0.0, lambda: tickets.extend(
                serving.submit("case", inputs) for _ in range(2)))
            scheduler.call_at(1e8, lambda: tickets.append(
                serving.submit("case", inputs)))
            scheduler.run_until_idle()
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=SERVING_EXECUTOR, kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return
        for ticket in tickets:
            response = ticket.response
            if response is None or not response.ok:
                status = "unresolved" if response is None \
                    else response.status.value
                result.failures.append(Failure(
                    executor=SERVING_EXECUTOR, kind="exception",
                    detail=f"request {ticket.request.id} ended "
                           f"{status}, expected ok"))
                continue
            for index, (ref, got) in enumerate(zip(expected,
                                                   response.outputs)):
                ref = np.asarray(ref)
                got = np.asarray(got)
                if (ref.shape != got.shape or ref.dtype != got.dtype
                        or ref.tobytes() != got.tobytes()):
                    result.failures.append(Failure(
                        executor=SERVING_EXECUTOR, kind="mismatch",
                        detail=f"path {response.path!r} not "
                               f"bit-identical to direct engine run",
                        output_index=index))

    # -- multi-replica fleet -----------------------------------------------

    def _check_fleet(self, inputs, executable,
                     result: CaseResult) -> None:
        """Drive a replica fleet through the case with per-replica faults.

        Routing policy and replica count vary with the seed; replica
        ``r0`` carries a seeded compile-fault schedule (and, every
        fourth seed, a tuner-fault schedule on top of budgeted tuning)
        while the other replicas stay clean, and ``r0`` is drained
        mid-stream.  The invariants: every request resolves OK and
        bit-identical to a direct engine run, none is lost or
        double-served across the scale-down, and quarantine never
        leaks off the faulted replica.
        """
        from ..serving import (FleetEngine, FleetOptions, ReplicaState,
                               ServingOptions, SignatureCompileCost,
                               VirtualScheduler)
        from ..tuning import TuningOptions
        from .faults import CompileFaultInjector, TunerFaultInjector

        result.executors_checked.append(FLEET_EXECUTOR)
        seed = result.input_seed
        policy = ("affinity", "round_robin",
                  "least_outstanding")[seed % 3]
        replicas = 2 + seed % 2
        tune = seed % 4 == 3
        faults: dict = {}

        def compile_fault_factory(uid):
            if uid != 0:
                return None
            return faults.setdefault(uid, CompileFaultInjector(
                transient_attempts=1 if seed % 2 == 0 else 0,
                permanent=seed % 3 == 2))

        def tuning_fault_factory(uid):
            return TunerFaultInjector() if uid == 0 else None

        try:
            expected, _ = ExecutionEngine(executable, self.device).run(
                inputs)
            scheduler = VirtualScheduler(seed=seed)
            fleet = FleetEngine(
                self.device, scheduler,
                FleetOptions(
                    replicas=replicas, policy=policy,
                    serving=ServingOptions(
                        compile_workers=1,
                        compile_backoff_us=1_000.0,
                        compile_cost=SignatureCompileCost(
                            fixed_us=5_000.0, per_kernel_us=100.0),
                        tuning=(TuningOptions(budget_us=2_000.0)
                                if tune else None))),
                compile_fault_factory=compile_fault_factory,
                tuning_fault_factory=(tuning_fault_factory if tune
                                      else None))
            fleet.register_model("case", executable)
            tickets: list = []
            # A cold burst across the fleet, a scale-down mid-stream,
            # then a late wave that must survive the retired replica.
            scheduler.call_at(0.0, lambda: tickets.extend(
                fleet.submit("case", inputs) for _ in range(3)))
            scheduler.call_at(5e7, lambda: fleet.drain("r0"))
            scheduler.call_at(1e8, lambda: tickets.extend(
                fleet.submit("case", inputs) for _ in range(3)))
            scheduler.run_until_idle()
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=FLEET_EXECUTOR, kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return
        counters = fleet.stats()["requests"]
        if counters["submitted"] != 6 or counters["ok"] != 6:
            result.failures.append(Failure(
                executor=FLEET_EXECUTOR, kind="invariant",
                detail=f"{counters['submitted']} submitted / "
                       f"{counters['ok']} ok across scale-down, "
                       "expected 6/6 (lost or double-served)"))
        drained = fleet.replica("r0")
        if drained.state is not ReplicaState.RETIRED \
                or drained.outstanding() != 0:
            result.failures.append(Failure(
                executor=FLEET_EXECUTOR, kind="invariant",
                detail=f"drained replica ended {drained.state.value} "
                       f"with {drained.outstanding()} outstanding"))
        for replica in fleet.replicas() + fleet.retired:
            if replica.name == "r0":
                continue
            leaked = (replica.engine._quarantined
                      | replica.engine._tuning_quarantined)
            if leaked:
                result.failures.append(Failure(
                    executor=FLEET_EXECUTOR, kind="invariant",
                    detail=f"quarantine leaked off the faulted replica "
                           f"onto {replica.name}: {sorted(leaked)[:1]}"))
        for ticket in tickets:
            response = ticket.response
            if response is None or not response.ok:
                status = "unresolved" if response is None \
                    else response.status.value
                result.failures.append(Failure(
                    executor=FLEET_EXECUTOR, kind="exception",
                    detail=f"fleet request {ticket.seq} ended "
                           f"{status}, expected ok"))
                continue
            for index, (ref, got) in enumerate(zip(expected,
                                                   response.outputs)):
                ref = np.asarray(ref)
                got = np.asarray(got)
                if (ref.shape != got.shape or ref.dtype != got.dtype
                        or ref.tobytes() != got.tobytes()):
                    result.failures.append(Failure(
                        executor=FLEET_EXECUTOR, kind="mismatch",
                        detail=f"replica {ticket.replica!r} path "
                               f"{response.path!r} not bit-identical "
                               "to direct engine run",
                        output_index=index))

    # -- symbolic memory plan ------------------------------------------------

    def _check_memplan(self, graph: Graph, inputs, executable,
                       result: CaseResult) -> None:
        """Audit the symbolic (class-wide) memory plan on this case.

        Five contracts: (1) *exactness* — the class plan's frozen slot
        expressions price this binding exactly like the concrete plan
        (``peak_at(dims) == evaluate(dims)["peak_bytes"]``) and the
        class peak interval contains the result; (2) *soundness* — the
        ground-truth oracle (:func:`~repro.runtime.symplan.
        measure_peak_bytes`) never observes more live bytes than the
        plan charges, and its replayed outputs are bit-identical to a
        direct engine run; (3) the plan's own aliasing proof
        (``verify_sound``) is clean; (4) *cross-check* — the
        independent L602 analyzer reaches the same verdict (the two
        implement one judgement separately; disagreement means one is
        wrong); (5) *reorder differential* — recompiling under the
        peak-aware reorder pass yields bit-identical outputs with a
        sound plan whose estimated peak never worsened.
        """
        from ..lint.interval_checks import check_memory_symbolic
        from ..runtime.symplan import measure_peak_bytes

        result.executors_checked.append(MEMPLAN_EXECUTOR)
        symbolic = getattr(executable, "symbolic_plan", None)
        if symbolic is None:
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="invariant",
                detail="pipeline produced no symbolic plan "
                       "(CompileOptions.symbolic_memory defaults on)"))
            return
        try:
            dims = executable.host_program.bind(inputs)
            expected, _ = ExecutionEngine(executable, self.device).run(
                inputs)
            peak = symbolic.peak_at(dims)
            charged = symbolic.evaluate(dims)["peak_bytes"]
            measured = measure_peak_bytes(executable, inputs)
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return
        if peak != charged:
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="invariant",
                detail=f"class plan prices this binding at {peak} bytes "
                       f"but the concrete plan charges {charged} — the "
                       f"frozen slot expressions drifted from the slot "
                       f"assignment"))
        interval = symbolic.peak_fact.interval
        if interval.lo is not None and peak < interval.lo:
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="invariant",
                detail=f"in-class peak {peak} below the class interval "
                       f"lower bound {interval.lo}"))
        if interval.hi is not None and peak > interval.hi:
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="invariant",
                detail=f"in-class peak {peak} exceeds the *proven* class "
                       f"upper bound {interval.hi} — the interval "
                       f"abstraction is unsound"))
        if measured["measured_peak_bytes"] > peak:
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="invariant",
                detail=f"ground truth observed "
                       f"{measured['measured_peak_bytes']} live bytes "
                       f"but the class plan charges only {peak} — the "
                       f"reuse plan under-provisions this binding"))
        for index, (ref, got) in enumerate(zip(expected,
                                               measured["outputs"])):
            ref = np.asarray(ref)
            got = np.asarray(got)
            if (ref.shape != got.shape or ref.dtype != got.dtype
                    or ref.tobytes() != got.tobytes()):
                result.failures.append(Failure(
                    executor=MEMPLAN_EXECUTOR, kind="mismatch",
                    detail="memory-oracle replay not bit-identical to a "
                           "direct engine run",
                    output_index=index))
        own = symbolic.verify_sound()
        analyzer = check_memory_symbolic(executable.buffer_plan,
                                         symbolic.imap).by_code("L602")
        for violation in own:
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="invariant",
                detail=f"aliasing proof failed: {violation}"))
        for diag in analyzer:
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="invariant",
                detail=f"L602 analyzer: {diag}"))
        if bool(own) != bool(analyzer):
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="invariant",
                detail=f"planner proof and L602 disagree "
                       f"({len(own)} vs {len(analyzer)} findings) — one "
                       f"of the two independent judgements is wrong"))
        self._check_memplan_reorder(graph, inputs, expected, result)

    def _check_memplan_reorder(self, graph: Graph, inputs, expected,
                               result: CaseResult) -> None:
        """Reorder differential: the peak-aware schedule changes cost
        estimates only, never numerics or plan soundness."""
        try:
            reordered = compile_graph(graph, CompileOptions(
                verify_each_pass=self.check_invariants,
                reorder_for_memory=True))
            outputs, _ = ExecutionEngine(reordered, self.device).run(
                inputs)
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=MEMPLAN_EXECUTOR, kind="exception",
                detail=f"reorder recompile: {type(exc).__name__}: {exc}"))
            return
        for index, (ref, got) in enumerate(zip(expected, outputs)):
            ref = np.asarray(ref)
            got = np.asarray(got)
            if (ref.shape != got.shape or ref.dtype != got.dtype
                    or ref.tobytes() != got.tobytes()):
                result.failures.append(Failure(
                    executor=MEMPLAN_EXECUTOR, kind="mismatch",
                    detail="peak-aware reorder changed numerics — the "
                           "pass must only move schedule cost",
                    output_index=index))
        plan = getattr(reordered, "symbolic_plan", None)
        if plan is not None:
            for violation in plan.verify_sound():
                result.failures.append(Failure(
                    executor=MEMPLAN_EXECUTOR, kind="invariant",
                    detail=f"reordered plan aliasing proof failed: "
                           f"{violation}"))

    # -- dynamic batching --------------------------------------------------

    def _check_batching(self, inputs, executable,
                        result: CaseResult) -> None:
        """Replay the case through the batching engine with faults.

        Three waves on the virtual clock: a cold burst (the batch
        explodes to solo fallbacks while the batched plan compiles in
        the background), a warm burst (served by one batched launch —
        unless a permanent fault quarantined the batched key, which must
        pin the bucket to solo service), and a late lone request (a
        single-member flush takes the ordinary solo path).  The contract
        is strict: every response is OK and bit-identical to a direct
        engine run — and because each member carries *distinct* float
        payloads of the same signature, any cross-member contamination
        inside a batch shows up here as a bit mismatch (identical
        members would hide it).
        """
        from ..serving import (BatchingOptions, BatchingServingEngine,
                               ServingOptions, SignatureCompileCost,
                               VirtualScheduler)
        from .faults import CompileFaultInjector

        result.executors_checked.append(BATCHING_EXECUTOR)
        seed = result.input_seed
        permanent = seed % 3 == 2

        def variant(index: int) -> dict:
            # Same signature (co-buckets with the others), different
            # float payloads; integer tensors (gather indices, masks)
            # stay untouched so they remain valid.
            if index == 0:
                return inputs
            shifted = {}
            for name, value in inputs.items():
                array = np.asarray(value)
                if np.issubdtype(array.dtype, np.floating):
                    array = (array + array.dtype.type(0.125) * index)
                shifted[name] = array
            return shifted

        try:
            reference = ExecutionEngine(executable, self.device)
            members = [variant(i) for i in range(7)]
            expected_by_id = {id(m): reference.run(m)[0] for m in members}
            fault = CompileFaultInjector(
                transient_attempts=1 if seed % 2 == 0 else 0,
                permanent=permanent)
            scheduler = VirtualScheduler(seed=seed)
            serving = BatchingServingEngine(
                self.device, scheduler,
                ServingOptions(
                    compile_workers=1,
                    compile_backoff_us=1_000.0,
                    compile_cost=SignatureCompileCost(
                        fixed_us=5_000.0, per_kernel_us=100.0)),
                batching=BatchingOptions(max_batch_size=4,
                                         max_queue_delay_us=2_000.0),
                compile_fault=fault)
            serving.register_model("case", executable)
            tickets: list = []
            scheduler.call_at(0.0, lambda: tickets.extend(
                serving.submit("case", m) for m in members[0:3]))
            scheduler.call_at(1e8, lambda: tickets.extend(
                serving.submit("case", m) for m in members[3:6]))
            scheduler.call_at(2e8, lambda: tickets.append(
                serving.submit("case", members[6])))
            scheduler.run_until_idle()
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=BATCHING_EXECUTOR, kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return
        for ticket in tickets:
            response = ticket.response
            if response is None or not response.ok:
                status = "unresolved" if response is None \
                    else response.status.value
                result.failures.append(Failure(
                    executor=BATCHING_EXECUTOR, kind="exception",
                    detail=f"request {ticket.request.id} ended "
                           f"{status}, expected ok"))
                continue
            expected = expected_by_id[id(ticket.request.inputs)]
            for index, (ref, got) in enumerate(zip(expected,
                                                   response.outputs)):
                ref = np.asarray(ref)
                got = np.asarray(got)
                if (ref.shape != got.shape or ref.dtype != got.dtype
                        or ref.tobytes() != got.tobytes()):
                    result.failures.append(Failure(
                        executor=BATCHING_EXECUTOR, kind="mismatch",
                        detail=f"path {response.path!r} not "
                               f"bit-identical to direct engine run",
                        output_index=index))
        batched = serving.counters["batched_served"]
        if permanent and batched:
            result.failures.append(Failure(
                executor=BATCHING_EXECUTOR, kind="invariant",
                detail=f"{batched} batched response(s) despite a "
                       f"permanent compile fault — quarantine must pin "
                       f"the bucket to solo service"))
        if not permanent and not batched:
            result.failures.append(Failure(
                executor=BATCHING_EXECUTOR, kind="invariant",
                detail="warm burst never took the batched path"))

    # -- schedule autotuning -----------------------------------------------

    def _check_tuning(self, inputs, executable,
                      result: CaseResult) -> None:
        """Run the schedule autotuner against its three contracts.

        (1) *Correctness*: a tuned plan's outputs are bit-identical to
        the heuristic plan's — schedules move simulated cost, never
        numerics — and its simulated device time is never higher.
        (2) *Determinism*: an independent tuner with the same signature
        and budget reaches the same winners for the same spend, and
        spend never exceeds the budget (seeds alternate a generous and
        a starvation budget to cover the exhaustion path).
        (3) *Isolation*: on every third seed, a serving run with an
        injected tuner fault must quarantine the search only — the
        compile completes, the installed plan is untuned, and every
        response is OK and bit-identical.
        """
        from ..tuning import ScheduleTuner, TuningOptions

        result.executors_checked.append(TUNING_EXECUTOR)
        seed = result.input_seed
        budget = 250_000.0 if seed % 2 == 0 else 2_000.0
        options = TuningOptions(budget_us=budget)
        try:
            engine = ExecutionEngine(executable, self.device)
            heur_out, heur_stats = engine.run(inputs)
            signature = engine.host_program.signature(inputs)
            tuned = ScheduleTuner(self.device, options).tune(
                executable, signature)
            engine.prepare(inputs, signature, selector=tuned.selector(),
                           overwrite=True)
            tuned_out, tuned_stats = engine.run(inputs)
            again = ScheduleTuner(self.device, options).tune(
                executable, signature)
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=TUNING_EXECUTOR, kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return
        for index, (ref, got) in enumerate(zip(heur_out, tuned_out)):
            ref = np.asarray(ref)
            got = np.asarray(got)
            if (ref.shape != got.shape or ref.dtype != got.dtype
                    or ref.tobytes() != got.tobytes()):
                result.failures.append(Failure(
                    executor=TUNING_EXECUTOR, kind="mismatch",
                    detail="tuned plan not bit-identical to heuristic "
                           "plan", output_index=index))
        if tuned_stats.device_time_us > heur_stats.device_time_us \
                * (1 + 1e-12):
            result.failures.append(Failure(
                executor=TUNING_EXECUTOR, kind="invariant",
                detail=f"tuned plan slower than heuristic "
                       f"({tuned_stats.device_time_us:.3f}us > "
                       f"{heur_stats.device_time_us:.3f}us)"))
        if tuned.spent_us > tuned.budget_us:
            result.failures.append(Failure(
                executor=TUNING_EXECUTOR, kind="invariant",
                detail=f"search spent {tuned.spent_us:.0f}us over its "
                       f"{tuned.budget_us:.0f}us budget"))
        if tuned.pick_names() != again.pick_names() \
                or tuned.spent_us != again.spent_us:
            result.failures.append(Failure(
                executor=TUNING_EXECUTOR, kind="invariant",
                detail="tuning not deterministic: same signature and "
                       "budget produced different winners or spend"))
        if seed % 3 == 2:
            self._check_tuning_fault(inputs, executable, heur_out,
                                     result, options)

    def _check_tuning_fault(self, inputs, executable, expected,
                            result: CaseResult, options) -> None:
        """Tuner fault under serving: quarantine search, serve on."""
        from ..serving import (ServingEngine, ServingOptions,
                               SignatureCompileCost, VirtualScheduler)
        from .faults import TunerFaultInjector

        seed = result.input_seed
        try:
            scheduler = VirtualScheduler(seed=seed)
            serving = ServingEngine(
                self.device, scheduler,
                ServingOptions(
                    compile_workers=1,
                    compile_backoff_us=1_000.0,
                    compile_cost=SignatureCompileCost(
                        fixed_us=5_000.0, per_kernel_us=100.0),
                    tuning=options),
                tuning_fault=TunerFaultInjector(fault_signatures=99))
            serving.register_model("case", executable)
            tickets: list = []
            scheduler.call_at(0.0, lambda: tickets.extend(
                serving.submit("case", inputs) for _ in range(2)))
            scheduler.call_at(1e8, lambda: tickets.append(
                serving.submit("case", inputs)))
            scheduler.run_until_idle()
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=TUNING_EXECUTOR, kind="exception",
                detail=f"serving leg: {type(exc).__name__}: {exc}"))
            return
        for ticket in tickets:
            response = ticket.response
            if response is None or not response.ok:
                status = "unresolved" if response is None \
                    else response.status.value
                result.failures.append(Failure(
                    executor=TUNING_EXECUTOR, kind="exception",
                    detail=f"request {ticket.request.id} ended "
                           f"{status} under a tuner fault, expected "
                           f"ok"))
                continue
            for index, (ref, got) in enumerate(zip(expected,
                                                   response.outputs)):
                ref = np.asarray(ref)
                got = np.asarray(got)
                if (ref.shape != got.shape or ref.dtype != got.dtype
                        or ref.tobytes() != got.tobytes()):
                    result.failures.append(Failure(
                        executor=TUNING_EXECUTOR, kind="mismatch",
                        detail=f"path {response.path!r} not "
                               f"bit-identical under a tuner fault",
                        output_index=index))
        if serving.counters["tuning_faults"] < 1:
            result.failures.append(Failure(
                executor=TUNING_EXECUTOR, kind="invariant",
                detail="injected tuner fault never fired"))
        signature = tickets[-1].request.signature if tickets else None
        plan = serving.model("case").engine.peek_plan(signature) \
            if signature is not None else None
        if plan is None or plan.tuned:
            result.failures.append(Failure(
                executor=TUNING_EXECUTOR, kind="invariant",
                detail="tuner fault must install an untuned heuristic "
                       "plan"))

    # -- tracing oracle ----------------------------------------------------

    def _check_obs(self, graph: Graph, inputs, executable,
                   result: CaseResult) -> None:
        """Re-run compile + record + replay under a CapturingTracer.

        Three contracts: (1) outputs are bit-identical to an untraced
        engine run; (2) the simulated ``RunStats`` are equal field for
        field on both the record and the replay call; (3) the recorded
        trace satisfies the structural invariants in
        :mod:`repro.obs.invariants`.
        """
        from ..obs import CapturingTracer, trace_failures

        result.executors_checked.append(OBS_EXECUTOR)
        try:
            if executable is None:
                # The untraced compile failed; the traced one must too.
                tracer = CapturingTracer()
                try:
                    compile_graph(graph, CompileOptions(
                        verify_each_pass=self.check_invariants,
                        tracer=tracer))
                except Exception:  # noqa: BLE001 - expected parity
                    return
                result.failures.append(Failure(
                    executor=OBS_EXECUTOR, kind="trace",
                    detail="compile succeeded under tracing but failed "
                           "untraced"))
                return
            baseline = ExecutionEngine(executable, self.device)
            plain = [baseline.run(inputs), baseline.run(inputs)]

            tracer = CapturingTracer()
            traced_exe = compile_graph(graph, CompileOptions(
                verify_each_pass=self.check_invariants, tracer=tracer))
            engine = ExecutionEngine(traced_exe, self.device,
                                     tracer=tracer)
            traced = [engine.run(inputs), engine.run(inputs)]
        except Exception as exc:  # noqa: BLE001
            result.failures.append(Failure(
                executor=OBS_EXECUTOR, kind="exception",
                detail=f"{type(exc).__name__}: {exc}"))
            return

        for call, ((ref_out, ref_stats), (got_out, got_stats)) in \
                enumerate(zip(plain, traced)):
            for index, (ref, got) in enumerate(zip(ref_out, got_out)):
                ref = np.asarray(ref)
                got = np.asarray(got)
                if (ref.shape != got.shape or ref.dtype != got.dtype
                        or ref.tobytes() != got.tobytes()):
                    result.failures.append(Failure(
                        executor=OBS_EXECUTOR, kind="mismatch",
                        detail=f"call {call}: traced output not "
                               f"bit-identical to untraced run",
                        output_index=index))
            if ref_stats != got_stats:
                result.failures.append(Failure(
                    executor=OBS_EXECUTOR, kind="mismatch",
                    detail=f"call {call}: traced RunStats differ from "
                           f"untraced ({got_stats} != {ref_stats})"))
        for detail in trace_failures(tracer):
            result.failures.append(Failure(
                executor=OBS_EXECUTOR, kind="trace", detail=detail))

    # -- baselines ---------------------------------------------------------

    def _check_baselines(self, graph: Graph, inputs, reference,
                         result: CaseResult) -> None:
        for name in self.baselines:
            result.executors_checked.append(name)
            try:
                executor = make_baseline(name, graph, self.device)
                outputs, _stats = executor.run(inputs)
            except Exception as exc:  # noqa: BLE001
                result.failures.append(Failure(
                    executor=name, kind="exception",
                    detail=f"{type(exc).__name__}: {exc}"))
                continue
            self._compare(name, graph, reference, outputs, result)

    # -- comparison --------------------------------------------------------

    @staticmethod
    def _compare(executor: str, graph: Graph, reference, outputs,
                 result: CaseResult) -> None:
        if len(outputs) != len(reference):
            result.failures.append(Failure(
                executor=executor, kind="mismatch",
                detail=f"{len(outputs)} outputs != "
                       f"reference {len(reference)}"))
            return
        for index, (ref, got) in enumerate(zip(reference, outputs)):
            detail = compare_arrays(np.asarray(ref), np.asarray(got),
                                    graph.outputs[index].dtype.name)
            if detail is not None:
                result.failures.append(Failure(
                    executor=executor, kind="mismatch",
                    detail=detail, output_index=index))
