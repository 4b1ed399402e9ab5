"""The complete DISC optimization pipeline.

``compile_graph`` is the library's main entry point: it takes a model graph
with symbolic shapes and produces a shape-generic :class:`Executable` —

1. lower composites, simplify, CSE, DCE, place shape computations (the
   generic pass pipeline);
2. run the cross-level symbolic shape analysis;
3. plan fusion from the propagated shape relationships;
4. generate one kernel per fusion group (compile-time half) with runtime
   schedule selection hooks (runtime half);
5. lower the kernel list into the slot-addressed host program (the
   compiled host-side instruction stream the engine executes);
6. assemble the executable with its compile report.

Compilation happens exactly once per model; no step here ever needs a
concrete shape value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..device.compilecost import compile_cost_us
from ..ir.graph import Graph
from ..ir.verifier import verify
from ..lint.blame import BlameRecorder
from ..lint.diagnostics import LintLevel
from ..lint.engine import _run_pipeline_lint
from ..obs.tracer import resolve_tracer
from ..passes import PassManager, PeakMemoryReorder, default_pipeline
from ..runtime.executable import CompileReport, Executable
from ..runtime.hostprog import lower_program
from ..runtime.memory import plan_buffers
from ..runtime.symplan import plan_symbolic
from .codegen.kernels import compile_group
from .fusion.kinds import FusionConfig, FusionKind
from .fusion.planner import plan_fusion
from .symbolic import ConstraintLevel, analyze_shapes

__all__ = ["CompileOptions", "DiscCompiler", "compile_graph"]


@dataclass
class CompileOptions:
    """Every ablatable knob of the pipeline.

    The memory stage has no on/off knob: every executable gets both the
    concrete buffer plan and its class-wide symbolic lift.
    """

    constraint_level: ConstraintLevel = ConstraintLevel.FULL
    fusion: FusionConfig = field(default_factory=FusionConfig)
    #: verify IR invariants after every pass (slower; on in tests).
    verify_each_pass: bool = False
    #: simulated compile-cost grade charged for this compilation.
    compile_grade: str = "jit"
    #: run the static-analysis suite (repro.lint) during compilation:
    #: graph + symbolic analyzers after every pass with per-pass blame,
    #: fusion/memory audits on the results.  Findings land in
    #: ``report.lint``; failure judgement (errors only vs warnings too)
    #: follows the level.  OFF keeps benchmarks overhead-free.
    lint_level: LintLevel = LintLevel.OFF
    #: proven deployment bounds, symbol name -> ``(lo, hi)`` (either end
    #: may be None).  Fed as ``assume_range`` facts into the interval
    #: analyzers (L6xx) when linting: a bound here retires hazards the
    #: class alone cannot exclude (e.g. a possible zero extent).  The
    #: memory stage uses them too: the buffer plan's slots are re-packed
    #: over a corner sweep of the ranges, and the class-wide symbolic
    #: plan (``Executable.symbolic_plan``, always built) gets a finite
    #: proven peak; without them its upper end is unbounded.  Zoo
    #: models supply their ``Model.axes`` ranges.
    assume_ranges: dict | None = None
    #: append the peak-aware operator reordering pass: reschedule nodes
    #: within topological freedom to shrink the estimated symbolic peak.
    #: Off by default — it changes kernel order (outputs stay
    #: bit-identical; costs and checked-in artifacts do not).
    reorder_for_memory: bool = False
    #: observability tracer (:class:`repro.obs.Tracer`).  None — the
    #: default — resolves to the shared no-op tracer; when set, the
    #: compile emits a ``compile:<graph>`` root span with ``stage:*``
    #: children and one ``pass:<name>`` span per pipeline pass.
    tracer: object | None = None


class DiscCompiler:
    """Compiles IR graphs into shape-generic executables."""

    def __init__(self, options: CompileOptions | None = None) -> None:
        self.options = options or CompileOptions()

    def compile(self, graph: Graph) -> Executable:
        """Compile ``graph`` (a clone is optimised; the input is kept)."""
        options = self.options
        tracer = resolve_tracer(options.tracer)
        start = time.perf_counter()
        with tracer.span(f"compile:{graph.name}",
                         grade=options.compile_grade) as root:
            working = graph.clone()
            verify(working)

            linting = options.lint_level is not LintLevel.OFF
            recorder = None
            if linting:
                recorder = BlameRecorder()
                recorder.prime(working)
            passes = default_pipeline()
            if options.reorder_for_memory:
                passes.append(PeakMemoryReorder(
                    assume_ranges=options.assume_ranges))
            manager = PassManager(
                passes,
                verify_each=options.verify_each_pass,
                after_each=recorder.after_pass if recorder else None,
                tracer=options.tracer)
            pass_results = manager.run(working)

            with tracer.span("stage:analysis"):
                analysis = analyze_shapes(working,
                                          options.constraint_level)
            with tracer.span("stage:fusion") as s:
                plan = plan_fusion(working, analysis, options.fusion)
                s.set(groups=len(plan.ordered_groups()))

            with tracer.span("stage:codegen") as s:
                users = working.users()
                kernels = []
                constants = {}
                for group in plan.ordered_groups():
                    kernels.append(
                        compile_group(group, users, working.outputs))
                for node in working.nodes:
                    if node.op == "constant":
                        constants[node] = node.attrs["value"].astype(
                            node.dtype.to_numpy(), copy=False)
                s.set(kernels=len(kernels))

            constant_bytes = sum(int(value.nbytes)
                                 for value in constants.values())
            with tracer.span("stage:memory") as s:
                buffer_plan = plan_buffers(
                    kernels, working, constant_bytes=constant_bytes,
                    assume_ranges=options.assume_ranges)
                symbolic_plan = plan_symbolic(
                    buffer_plan, working,
                    assume_ranges=options.assume_ranges)
                s.set(slots=buffer_plan.num_slots,
                      class_peak=str(symbolic_plan.peak_fact.interval))
            # Host-program lowering: renumber values to dense slots, freeze
            # per-kernel slot tuples and last-use release, factor the dim
            # resolver — everything the engine would otherwise re-derive
            # per call (see runtime.hostprog).
            with tracer.span("stage:hostprog") as s:
                host_program = lower_program(working, kernels, constants,
                                             buffer_plan=buffer_plan)
                s.set(slots=host_program.num_slots)
            lint_sink = None
            if linting:
                with tracer.span("stage:lint") as s:
                    lint_sink = _run_pipeline_lint(
                        working, recorder, plan, analysis, options.fusion,
                        buffer_plan, host_program,
                        assume_ranges=options.assume_ranges)
                    s.set(findings=len(lint_sink.diagnostics))

            root.set(nodes=len(working.nodes), kernels=len(kernels))
        wall = time.perf_counter() - start
        report = CompileReport(
            wall_time_s=wall,
            simulated_compile_us=compile_cost_us(len(working.nodes),
                                                 options.compile_grade),
            pass_results=pass_results,
            fusion_stats=plan.stats(),
            analysis_summary=analysis.summary(),
            num_kernels=sum(1 for k in kernels
                            if k.kind not in (FusionKind.METADATA,
                                              FusionKind.HOST)),
            num_nodes=len(working.nodes),
            lint=lint_sink,
        )
        return Executable(graph=working, plan=plan, kernels=kernels,
                          constants=constants, report=report,
                          buffer_plan=buffer_plan,
                          host_program=host_program,
                          symbolic_plan=symbolic_plan)


def compile_graph(graph: Graph,
                  options: CompileOptions | None = None) -> Executable:
    """One-shot convenience wrapper around :class:`DiscCompiler`."""
    return DiscCompiler(options).compile(graph)
