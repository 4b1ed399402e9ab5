"""The executable format produced by the DISC pipeline.

An :class:`Executable` is shape-generic: one compilation serves every
runtime shape.  It owns the ordered compiled kernels, the constant buffers,
and the compile-time metadata (pass results, fusion stats, simulated
compile cost) that the experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.codegen.kernels import CompiledKernel
from ..core.fusion.kinds import FusionPlan
from ..ir.graph import Graph
from ..ir.node import Node

__all__ = ["Executable", "CompileReport"]


@dataclass
class CompileReport:
    """Everything the compiler did, for the overhead experiments."""

    wall_time_s: float = 0.0
    simulated_compile_us: float = 0.0
    pass_results: list = field(default_factory=list)
    fusion_stats: dict = field(default_factory=dict)
    analysis_summary: dict = field(default_factory=dict)
    num_kernels: int = 0
    num_nodes: int = 0
    #: DiagnosticSink from the lint suite (None when lint_level is OFF).
    lint: object = None


@dataclass
class Executable:
    """A compiled, shape-generic program."""

    graph: Graph
    plan: FusionPlan
    kernels: list  # ordered CompiledKernel list (execution order)
    constants: dict  # Node -> np.ndarray
    report: CompileReport
    #: liveness-based intermediate-buffer reuse plan (see runtime.memory).
    buffer_plan: object
    #: class-wide symbolic memory plan (see runtime.symplan): the same
    #: slots lifted to every shape in the signature class, with an
    #: interval-valued peak the serving/fleet budgets consume.
    symbolic_plan: object
    #: slot-addressed host program (see runtime.hostprog), lowered by
    #: the pipeline at compile time.
    host_program: object

    @property
    def params(self) -> Sequence[Node]:
        return self.graph.params

    @property
    def outputs(self) -> Sequence[Node]:
        return self.graph.outputs

    def kernel_sources(self) -> dict[str, str]:
        """Generated source per kernel, for inspection and tests."""
        return {k.name: k.source for k in self.kernels}

    def find_kernel(self, name: str) -> CompiledKernel:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(name)

    def constant_bytes(self) -> int:
        return sum(int(np.asarray(v).nbytes)
                   for v in self.constants.values())
