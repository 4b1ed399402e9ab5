"""BladeDISC as an :class:`Executor`, for side-by-side evaluation.

Wraps the real pipeline (``repro.core``) behind the same interface as the
simulated baselines: compiles exactly once (charging the simulated JIT cost
on the first call) and then serves every shape from the one shape-generic
executable.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..core.pipeline import CompileOptions, DiscCompiler
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from ..ir.graph import Graph
from ..runtime.engine import EngineOptions, ExecutionEngine
from .base import Executor

__all__ = ["DiscExecutor"]


class DiscExecutor(Executor):
    """The system under evaluation: compile once, run any shape."""

    name = "BladeDISC"

    def __init__(self, graph: Graph, device: DeviceProfile,
                 compile_options: CompileOptions | None = None,
                 engine_options: EngineOptions | None = None) -> None:
        super().__init__(graph, device)
        self.executable = DiscCompiler(compile_options).compile(graph)
        self.engine = ExecutionEngine(self.executable, device,
                                      engine_options)
        self._compiled_charged = False

    def run(self, inputs: Mapping[str, np.ndarray]
            ) -> tuple[list, RunStats]:
        outputs, stats = self.engine.run(inputs)
        if not self._compiled_charged:
            self._compiled_charged = True
            stats.compile_time_us += \
                self.executable.report.simulated_compile_us
            stats.cache_hit = False
        return outputs, stats
