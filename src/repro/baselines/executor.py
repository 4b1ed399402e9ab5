"""The simulated-baseline executor framework.

Each baseline system is described declaratively by a :class:`BaselineSpec`:
how it prepares the graph (does it decompose composites?), what fusion it is
capable of, how efficient its kernels are, how it dispatches work, and —
decisive under dynamic shapes — its *compilation policy*: never, once,
per shape signature, or per padded bucket.

:class:`SimulatedBaseline` interprets a spec: it reuses the repo's own
fusion planner and kernel compiler (with the spec's restricted config) so
that numerics are identical across systems, while the spec's cost knobs
steer the simulated time.  Padding systems execute real shapes but are
*charged* for the padded ones, exactly like a real padded engine wastes
compute on filler rows.

Construction builds what :meth:`SimulatedBaseline.charge` reads: the
fusion plan and every kernel's cost recipe.  The kernel code and host
program are built on the first :meth:`SimulatedBaseline.run`, so a
baseline that is only ever charged (the serving fallback's) never
generates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..core.codegen.kernels import cost_group, emit_kernel
from ..core.fusion.kinds import FusionConfig
from ..core.fusion.planner import plan_fusion
from ..core.symbolic import ConstraintLevel, analyze_shapes
from ..device.compilecost import compile_cost_us
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from ..ir.graph import Graph
from ..passes import (AlgebraicSimplify, CommonSubexpressionElimination,
                      ConstantFold, DeadCodeElimination, LowerComposites,
                      PassManager, PlaceShapeComputations)
from ..runtime.caches import shape_signature
from ..runtime.engine import EngineOptions, charge_kernel
from ..runtime.hostprog import HostProgram, lower_program
from .base import Executor

__all__ = ["BaselineSpec", "SimulatedBaseline"]


@dataclass
class BaselineSpec:
    """Declarative model of one baseline system's dynamic-shape strategy."""

    name: str
    #: decompose composites (compiler stacks) or keep them as fused
    #: library kernels (framework stacks / pattern fusers)?
    lower_composites: bool
    #: symbolic constraint strength available to its fuser.
    constraint_level: ConstraintLevel
    #: fusion capability.
    fusion: FusionConfig
    #: kernel quality relative to peak codegen.
    base_efficiency: float
    #: host cost to issue one kernel.
    dispatch_us: float
    #: eager frameworks serialise dispatch with execution per op; compiled
    #: runtimes pipeline dispatch.
    eager_dispatch: bool
    #: simulated compile-cost grade, or None if the system never compiles.
    compile_grade: str | None
    #: "none" | "once" | "per_signature" | "per_bucket"
    compile_policy: str = "none"
    #: per-call host overhead (e.g. Inductor guard evaluation).
    guard_overhead_us: float = 0.0
    #: dynamic-extent padding function for bucketed static systems.
    bucket: Callable[[int], int] | None = None
    #: run generic graph cleanups (simplify/CSE/DCE) during preparation.
    optimize_graph: bool = True


class SimulatedBaseline(Executor):
    """Executes a graph the way ``spec``'s system would."""

    def __init__(self, graph: Graph, device: DeviceProfile,
                 spec: BaselineSpec) -> None:
        super().__init__(graph, device)
        self.spec = spec
        self.name = spec.name
        self._prepare()

    # -- preparation (structural compilation, shared by all shapes) -------

    def _prepare(self) -> None:
        spec = self.spec
        working = self.graph.clone()
        passes = []
        if spec.lower_composites:
            passes.append(LowerComposites())
        if spec.optimize_graph:
            passes.extend([
                AlgebraicSimplify(), ConstantFold(),
                CommonSubexpressionElimination(), DeadCodeElimination(),
                PlaceShapeComputations(),
            ])
        if passes:
            PassManager(passes).run(working)
        analysis = analyze_shapes(working, spec.constraint_level)
        plan = plan_fusion(working, analysis, spec.fusion)
        users = working.users()
        self.working = working
        self.plan = plan
        self.kernels = [cost_group(group, users, working.outputs)
                        for group in plan.ordered_groups()]
        self._program: HostProgram | None = None
        # The shared charge reads its kernel quality from engine options;
        # baselines always charge host-placed ops as host work.
        self._charge_options = EngineOptions(
            base_efficiency=spec.base_efficiency)
        #: cache keys of every compile charged so far.
        self._compiled: set = set()
        self._compiled_once = False

    @property
    def program(self) -> HostProgram:
        """The host program, built on first use with every kernel's
        code: :meth:`charge` needs neither."""
        if self._program is None:
            for kernel in self.kernels:
                emit_kernel(kernel)
            working = self.working
            constants = {
                node: node.attrs["value"].astype(node.dtype.to_numpy(),
                                                 copy=False)
                for node in working.nodes if node.op == "constant"}
            self._program = lower_program(working, self.kernels,
                                          constants)
        return self._program

    # -- serving ----------------------------------------------------------

    def run(self, inputs: Mapping[str, np.ndarray]
            ) -> tuple[list, RunStats]:
        dims = self.program.bind(inputs)
        stats = self.charge(inputs, dims)
        return self.program.execute(inputs, dims), stats

    def charge(self, inputs: Mapping[str, np.ndarray],
               dims: dict) -> RunStats:
        """The simulated cost of one call at ``dims``; runs no kernel.

        ``inputs`` only key the per-signature compile policy.  A charge
        counts as a call: it records the compiles it triggers.
        """
        spec = self.spec
        stats = RunStats(cache_hit=True)
        cost_dims = self._cost_dims(dims)

        self._charge_compilation(inputs, cost_dims, stats)
        stats.host_time_us += spec.guard_overhead_us
        eager_dispatch_us = spec.dispatch_us if spec.eager_dispatch else None
        for kernel in self.kernels:
            charged = charge_kernel(kernel, cost_dims, stats, None,
                                    self._charge_options, self.device,
                                    eager_dispatch_us=eager_dispatch_us)
            if charged is not None and spec.bucket is not None:
                schedule, cost = charged
                real = kernel.cost_spec(dims, schedule, spec.base_efficiency)
                stats.padding_waste_bytes += max(
                    0, cost.bytes_total - real.bytes_total)
        # Schedule picks are the engine's to report, not a baseline's.
        stats.details.pop("schedules", None)

        if not spec.eager_dispatch:
            stats.host_time_us += spec.dispatch_us * stats.kernels_launched
        return stats

    # -- cost policy ---------------------------------------------------------

    def _cost_dims(self, dims: dict) -> dict:
        """The dim bindings the system is *charged* for (padded if bucketed)."""
        if self.spec.bucket is None:
            return dims
        return {name: self.spec.bucket(value)
                for name, value in dims.items()}

    def _charge_compilation(self, inputs: Mapping, cost_dims: dict,
                            stats: RunStats) -> None:
        spec = self.spec
        if spec.compile_policy == "none" or spec.compile_grade is None:
            return
        cost = compile_cost_us(len(self.working.nodes), spec.compile_grade)
        if spec.compile_policy == "once":
            if not self._compiled_once:
                self._compiled_once = True
                stats.compile_time_us += cost
                stats.cache_hit = False
            return
        if spec.compile_policy == "per_signature":
            key = shape_signature(inputs)
        elif spec.compile_policy == "per_bucket":
            key = tuple(sorted(cost_dims.items()))
        else:
            raise ValueError(
                f"unknown compile policy {spec.compile_policy!r}")
        if key not in self._compiled:
            self._compiled.add(key)
            stats.compile_time_us += cost
            stats.cache_hit = False
