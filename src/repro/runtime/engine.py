"""The execution engine (the paper's Runtime Abstraction Layer, RAL).

Runs an :class:`Executable` on concrete inputs.  Execution is split the
way the paper splits codegen:

- **compile time** — the executable is lowered once into a
  :class:`~repro.runtime.hostprog.HostProgram`: dense value slots,
  slot-indexed instructions, factored dim resolution, last-use release
  (see :mod:`repro.runtime.hostprog`);
- **per signature** — the one freeze path, shared by a first call,
  ``prepare`` and ``prepare_batched``, binds the shapes, solves derived
  symbols, selects every kernel's schedule and evaluates cost recipes +
  memory plan, freezing all of it into a
  :class:`~repro.runtime.launchplan.LaunchPlan` in a bounded LRU cache;
- **per call** — the one instruction loop, ``HostProgram.execute``, runs
  the stream against the frozen dims (gather slots, run the kernel,
  scatter slots, drop dead values); tracing rides it as a hook.

Every executor charges kernels through :func:`charge_kernel`.  Simulated
statistics and numeric outputs are bit-identical to
:class:`LegacyExecutionEngine`, the per-call interpreter-style engine
kept for the E15 host-overhead comparison and the equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.codegen.schedules import Schedule, schedule_named
from ..core.fusion.kinds import FusionKind
from ..device.cost import kernel_time_us
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from ..numerics.resolve import bind_inputs, resolve_all_dims
from ..obs.tracer import resolve_tracer
from .executable import Executable
from .hostprog import HostProgram
from .launchplan import (LaunchPlan, LaunchPlanCache, SharedPlans,
                         format_signature)
from .memory import scale_batched_memory

__all__ = ["DISPATCH_US_PER_KERNEL", "EngineOptions", "ExecutionEngine",
           "LegacyExecutionEngine", "charge_kernel"]

#: host-side cost of issuing one kernel from compiled host code.
DISPATCH_US_PER_KERNEL = 0.6


@dataclass
class EngineOptions:
    """Execution knobs (ablations use these)."""

    #: codegen quality relative to a perfectly tuned static kernel; the
    #: paper concedes a small gap versus shape-specialised code.
    base_efficiency: float = 0.95
    #: force a single schedule variant everywhere (experiment E9); None
    #: enables the runtime selector.
    fixed_schedule: str | None = None
    #: charge host-placed ops at host cost instead of kernel launches
    #: (disabled by the E10 ablation to show why placement matters).
    host_placement_enabled: bool = True
    #: bound on live launch plans (per-signature frozen host state);
    #: None is unbounded.
    plan_capacity: int | None = 64


def charge_kernel(kernel, dims: dict, stats: RunStats,
                  forced: Schedule | None, options: EngineOptions,
                  device: DeviceProfile, selector=None, *, batch: int = 1,
                  eager_dispatch_us: float | None = None):
    """Account one kernel launch into ``stats`` (simulated cost).

    The one cost charge of the engines and the simulated baselines
    (which the eager fallback reuses).  ``selector`` is the schedule
    selection seam (None = dispatch-stub heuristics); the chosen variant
    of every schedulable kernel is surfaced in
    ``stats.details["schedules"]``.
    ``batch`` stacked members ride a leading dim through one launch:
    bytes, flops and parallel elements scale, the launch overhead and
    metadata/host work do not.  ``eager_dispatch_us`` serializes each
    launch behind its host dispatch, so a short kernel costs the full
    dispatch gap.  Returns ``(schedule, spec)`` for a device launch (the
    baselines re-cost the pick for padding waste), None for host work.
    """
    kind = kernel.kind
    if kind is FusionKind.METADATA:
        # reshape-only: a host-side view adjustment.
        stats.host_time_us += 0.1 * len(kernel.members)
        return None
    host = kind is FusionKind.HOST
    if host and options.host_placement_enabled:
        stats.host_time_us += device.host_op_us * len(kernel.members)
        return None
    # A host kernel reaching here is the ablation that launches shape
    # computation as device kernels: no schedule, one launch, no traffic.
    schedule = None if host else kernel.resolve_schedule(dims, forced,
                                                         selector)
    if schedule is not None:
        stats.details.setdefault("schedules", {})[kernel.name] = \
            schedule.name
    spec = kernel.cost_spec(dims, schedule, options.base_efficiency)
    if batch != 1:
        # ``spec`` is this launch's own fresh record: scale it in place.
        spec.bytes_read *= batch
        spec.bytes_written *= batch
        spec.flops *= batch
        spec.parallel_elements *= batch
    device_us = kernel_time_us(spec, device)
    if eager_dispatch_us is not None:
        device_us = max(device_us, eager_dispatch_us)
    stats.device_time_us += device_us
    if host:
        stats.kernels_launched += 1
        return None, spec
    stats.kernels_launched += 1 + spec.extra_launches
    stats.bytes_read += spec.bytes_read
    stats.bytes_written += spec.bytes_written
    stats.flops += spec.flops
    return schedule, spec


class ExecutionEngine:
    """Executes a compiled program through its host program.

    ``tracer`` (None = off) wraps every call in an ``engine:run`` span
    holding an ``engine:record`` or ``engine:replay`` child with
    per-kernel launch spans.  The untraced path runs the host program
    with no hook: ``run`` dispatches once on ``tracer.enabled``.

    ``shared_plans`` (None = none) is a memo of ``executable``'s frozen
    plans that other engines also freeze into: a heuristic freeze it
    already holds is taken from it, not charged again.
    """

    def __init__(self, executable: Executable, device: DeviceProfile,
                 options: EngineOptions | None = None, *,
                 tracer=None,
                 shared_plans: SharedPlans | None = None) -> None:
        self.executable = executable
        self.device = device
        self.options = options = options or EngineOptions()
        self.tracer = resolve_tracer(tracer)
        if shared_plans is not None \
                and shared_plans.executable is not executable:
            raise ValueError("shared plans belong to another executable")
        self.shared_plans = shared_plans
        #: everything a heuristic freeze reads besides the signature and
        #: the batch: the shared-plan key's prefix.
        self._freeze_key = (device, options.base_efficiency,
                            options.fixed_schedule,
                            options.host_placement_enabled)
        self.host_program: HostProgram = executable.host_program
        self.plans = LaunchPlanCache(self.options.plan_capacity,
                                     tracer=tracer)
        # The class-wide memory snapshot is computed once per engine —
        # every frozen plan of every signature in the class shares it,
        # so replay never touches the planner again.
        self._memory_class = executable.symbolic_plan.snapshot()

    def run(self, inputs: Mapping[str, np.ndarray],
            signature: tuple | None = None) -> tuple[list, RunStats]:
        """Execute on concrete inputs; returns (outputs, stats).

        ``signature`` lets a caller that already computed the call's
        signature skip the recomputation; plain callers leave it None.
        A miss freezes the signature's plan, replays it, and only then
        installs it, so a first call that raises leaves no plan behind.
        """
        if self.tracer.enabled:
            return self._run_traced(inputs, signature)
        program = self.host_program
        if signature is None:
            signature = program.signature(inputs)
        plan = self.plans.get(signature)
        if plan is not None:
            return self._replay(plan, inputs)
        plan = self._plan(signature, program.bind, inputs)
        result = self._replay(plan, inputs)
        self.plans.put(signature, plan)
        return result

    def _run_traced(self, inputs: Mapping[str, np.ndarray],
                    signature: tuple | None) -> tuple[list, RunStats]:
        """The traced twin of :meth:`run`; same order, same charges."""
        tracer = self.tracer
        program = self.host_program
        with tracer.span("engine:run") as span:
            if signature is None:
                signature = program.signature(inputs)
            span.set(signature=format_signature(signature))
            plan = self.plans.get(signature)
            hit = plan is not None
            path = "replay" if hit else "record"
            with tracer.span(f"engine:{path}") as child:
                if not hit:
                    plan = self._plan(signature, program.bind, inputs)
                launches = None if hit else plan.launches
                with _KernelSpans(tracer, launches) as hook:
                    outputs, stats = self._replay(plan, inputs, hook)
                child.set(kernels_launched=stats.kernels_launched)
            if not hit:
                self.plans.put(signature, plan)
            span.set(path=path, cache_hit=hit)
            return outputs, stats

    def peek_plan(self, signature: tuple) -> LaunchPlan | None:
        """The frozen plan for ``signature`` (no stats side effects)."""
        return self.plans.peek(signature)

    def prepare(self, inputs: Mapping[str, np.ndarray],
                signature: tuple | None = None, *,
                selector=None, overwrite: bool = False) -> LaunchPlan:
        """Freeze and install the signature's plan without executing data.

        This is the background-compilation entry point of the serving
        runtime (:mod:`repro.serving`): the shape-generic work of a first
        call — binding, derived-symbol resolution, schedule selection,
        cost-recipe and memory-plan evaluation — goes through the same
        :meth:`_freeze` a data-carrying first call uses, so the plan is
        bit-identical to a recorded one and a later :meth:`run` of the
        signature replays it as a warm hit.

        ``selector`` freezes schedule picks chosen by a non-default
        policy (the autotuner's winners) into the plan; ``overwrite``
        replaces an already-installed plan — the tuner uses it to
        upgrade a heuristic plan in place.
        """
        program = self.host_program
        if signature is None:
            signature = program.signature(inputs)
        if not overwrite:
            existing = self.plans.peek(signature)
            if existing is not None:
                return existing
        tracer = self.tracer
        with tracer.span("engine:prepare") as span:
            plan = self._plan(signature, program.bind, inputs,
                              selector=selector)
            self.plans.put(signature, plan)
            if tracer.enabled:
                span.set(signature=format_signature(signature),
                         kernels_launched=plan.stats.kernels_launched)
        return plan

    # -- batched launches (the serving batcher's entry points) -------------

    def _batched_key(self, signature: tuple, batch_size: int) -> tuple:
        """Plan-cache key of a batched launch: the batch dim is part of
        the signature (leading dim), and a fixed ``@batch`` marker keeps
        it apart from a solo plan's key (the bare signature)."""
        return ("@batch", HostProgram.batched_signature(signature,
                                                        batch_size))

    def peek_batched(self, signature: tuple,
                     batch_size: int) -> LaunchPlan | None:
        """The frozen batched plan, or None (no stats side effects)."""
        return self.plans.peek(self._batched_key(signature, batch_size))

    def prepare_batched(self, signature: tuple,
                        batch_size: int) -> LaunchPlan:
        """Freeze the launch plan for ``batch_size`` stacked members.

        ``signature`` is the bucket's *padded* per-member signature; the
        frozen cost charges every kernel once with bytes/flops/parallel
        elements scaled by ``batch_size`` (padding waste included — the
        padded dims, not the members' true dims, drive the recipes).
        Like :meth:`prepare`, no tensor data is touched; this is the
        background-compilation entry for batched plans.
        """
        key = self._batched_key(signature, batch_size)
        existing = self.plans.peek(key)
        if existing is not None:
            return existing
        tracer = self.tracer
        with tracer.span("engine:prepare_batched") as span:
            plan = self._plan(signature,
                              self.host_program.bind_signature, signature,
                              batch=batch_size)
            self.plans.put(key, plan)
            if tracer.enabled:
                span.set(signature=format_signature(key[1]),
                         batch=batch_size,
                         kernels_launched=plan.stats.kernels_launched)
        return plan

    def run_batched(self, inputs_list: Sequence[Mapping[str, np.ndarray]],
                    signature: tuple, batch_size: int) -> tuple:
        """Serve ``inputs_list`` members with one batched launch.

        Numeric execution is per member against its *true* dims —
        padding is a cost concept, never a numeric one — so each
        member's outputs are bit-identical to a solo run of the same
        inputs.  The simulated cost is the frozen batched plan's,
        charged once for the whole launch; returns
        ``(per_member_outputs, stats)``.
        """
        plan = self.plans.get(self._batched_key(signature, batch_size))
        if plan is None:
            plan = self.prepare_batched(signature, batch_size)
        program = self.host_program
        results = [program.execute(inputs, program.bind(inputs))
                   for inputs in inputs_list]
        return results, plan.make_stats()

    # -- the one plan-freeze path and the one replay path ------------------

    def _plan(self, signature: tuple, bind, source, *, selector=None,
              batch: int | None = None) -> LaunchPlan:
        """The plan :meth:`_freeze` freezes at ``bind(source)``'s dims.

        With ``shared_plans``, a heuristic plan (no ``selector``) is
        frozen once and shared: equal keys mean equal signatures, so the
        memo's plan is exactly the one this freeze would make.  A tuned
        freeze stays this engine's own.
        """
        shared = self.shared_plans
        if shared is None or selector is not None:
            return self._freeze(signature, bind(source), selector=selector,
                                batch=batch)
        key = (self._freeze_key, signature, batch)
        plan = shared.get(key)
        if plan is None:
            plan = self._freeze(signature, bind(source), batch=batch)
            shared[key] = plan
        return plan

    def _freeze(self, signature: tuple, dims: dict, *, selector=None,
                batch: int | None = None) -> LaunchPlan:
        """Charge every kernel at ``dims`` and freeze the result.

        The plan-freeze path shared by :meth:`run`'s miss path,
        :meth:`prepare` and :meth:`prepare_batched` (through
        :meth:`_plan`).  It touches no tensor data: no kernel adds a
        binding to ``dims`` once the host program has bound them, so
        charging before execution charges what charging alongside it
        would.  ``batch`` (None = a solo plan) freezes a batched plan
        for that many stacked members of ``signature`` — a batch of one
        is still a batched plan — whose stats carry a ``batch`` detail.
        The per-instruction launch counts are frozen too, for the traced
        record path's kernel spans.
        """
        options = self.options
        forced: Schedule | None = None
        if options.fixed_schedule is not None:
            forced = schedule_named(options.fixed_schedule)
        device = self.device
        stats = RunStats(cache_hit=True)
        launches = []
        for instr in self.host_program.instructions:
            before = stats.kernels_launched
            charge_kernel(instr.kernel, dims, stats, forced, options,
                          device, selector, batch=batch or 1)
            launches.append(stats.kernels_launched - before)
        stats.host_time_us += (DISPATCH_US_PER_KERNEL
                               * stats.kernels_launched)
        memory = self.executable.buffer_plan.evaluate(dims)
        if batch is None:
            stats.details["memory"] = memory
            return LaunchPlan(signature, dims, stats, self._memory_class,
                              tuned=selector is not None,
                              launches=tuple(launches))
        stats.details["memory"] = scale_batched_memory(memory, batch)
        stats.details["batch"] = {
            "size": batch, "padded_signature": format_signature(signature)}
        return LaunchPlan(HostProgram.batched_signature(signature, batch),
                          dims, stats, dict(self._memory_class, batch=batch),
                          launches=tuple(launches))

    def _replay(self, plan: LaunchPlan, inputs: Mapping[str, np.ndarray],
                hook=None) -> tuple:
        """Run the instruction stream at ``plan``'s frozen dims and
        charge its frozen cost; ``hook`` is passed to
        :meth:`HostProgram.execute`."""
        return (self.host_program.execute(inputs, plan.dims, hook),
                plan.make_stats())


class _KernelSpans:
    """Execute hook: one ``kernel:<name>`` span around each instruction.

    On the record path ``launches`` (the plan's per-instruction launch
    counts) stamps each span, next to its output slots.  Replay passes
    None: it charges the frozen aggregate, so its kernel spans carry no
    ``launches``.  As a context manager it closes the span a raising
    kernel left open, stamped with the error.
    """

    __slots__ = ("tracer", "launches", "index", "span")

    def __init__(self, tracer, launches: tuple | None) -> None:
        self.tracer = tracer
        self.launches = launches
        self.index = 0
        self.span = None

    def before(self, instr) -> None:
        attrs = {} if self.launches is None else \
            {"slots": list(instr.out_slots)}
        self.span = self.tracer.begin(f"kernel:{instr.kernel.name}",
                                      **attrs)

    def after(self, instr, env) -> None:
        attrs = {} if self.launches is None else \
            {"launches": self.launches[self.index]}
        self.tracer.end(self.span, **attrs)
        self.index += 1
        self.span = None

    def __enter__(self) -> "_KernelSpans":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.span is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
            self.tracer.end(self.span)
        return False


class LegacyExecutionEngine:
    """The per-call interpreter-style engine the host program replaced.

    Re-derives the shape-generic work — input binding, a whole-graph
    symbol-resolution walk, dict-of-node-id environment, per-kernel
    schedule selection and cost evaluation — on every call.  Kept as the
    bit-exactness reference for the equivalence suite and as the
    baseline the E15 host-overhead benchmark measures against.
    """

    def __init__(self, executable: Executable, device: DeviceProfile,
                 options: EngineOptions | None = None,
                 tracer=None) -> None:
        self.executable = executable
        self.device = device
        self.options = options or EngineOptions()
        self.tracer = resolve_tracer(tracer)

    def run(self, inputs: Mapping[str, np.ndarray]
            ) -> tuple[list, RunStats]:
        """Execute on concrete inputs; returns (outputs, stats)."""
        if self.tracer.enabled:
            with self.tracer.span("engine:legacy_run") as span:
                results, stats = self._run(inputs, self.tracer)
                span.set(kernels_launched=stats.kernels_launched)
            return results, stats
        return self._run(inputs, self.tracer)

    def _run(self, inputs: Mapping[str, np.ndarray], tracer
             ) -> tuple[list, RunStats]:
        executable = self.executable
        options = self.options
        dims = bind_inputs(executable.params, inputs)
        resolve_all_dims(executable.graph.nodes, dims)
        stats = RunStats(cache_hit=True)

        env: dict[int, np.ndarray] = {}
        for param in executable.params:
            env[param.id] = np.ascontiguousarray(
                inputs[param.attrs["param_name"]])
        for node, value in executable.constants.items():
            env[node.id] = value

        forced: Schedule | None = None
        if options.fixed_schedule is not None:
            forced = schedule_named(options.fixed_schedule)

        traced = tracer.enabled
        for kernel in executable.kernels:
            if traced:
                span = tracer.begin(f"kernel:{kernel.name}")
            args = [env[n.id] for n in kernel.input_nodes]
            outputs = kernel.execute(args, dims)
            for node, value in zip(kernel.output_nodes, outputs):
                env[node.id] = value
            before = stats.kernels_launched
            charge_kernel(kernel, dims, stats, forced, options,
                          self.device)
            if traced:
                tracer.end(span,
                           launches=stats.kernels_launched - before)

        stats.host_time_us += (DISPATCH_US_PER_KERNEL
                               * stats.kernels_launched)
        stats.details["memory"] = executable.buffer_plan.evaluate(dims)
        results = [env[out.id] for out in executable.outputs]
        return results, stats
