"""The interpreter fallback path of the serving runtime.

While a signature's launch plan is still compiling in the background —
or forever, if its compiles are quarantined — requests are answered by
interpreting the compiled executable's optimized graph.  Two properties
make that a *serving* path rather than a debugging crutch:

- **bit-identical outputs.**  The fallback interprets the same optimized
  graph the engine's kernels were generated from, with derived symbols
  pre-resolved and the interpreter's ``kernel_layout`` mode matching
  codegen's materialisation decisions; a request cannot observe which
  path served it (the property suite and the serving fuzz oracle enforce
  exact equality against a direct :class:`ExecutionEngine` run).
- **an eager cost model.**  The simulated latency of a fallback call is
  charged the way the eager baselines charge PyTorch-style execution:
  one un-fused kernel per op, each launch serialized behind a host
  dispatch (``max(kernel_time, dispatch)``).  That keeps E16 honest —
  the fallback is *slower* than the compiled path by construction, and
  the benefit of background compilation is the measured difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.fusion import FusionConfig, plan_fusion
from ..core.codegen import compile_group
from ..core.symbolic import ConstraintLevel, analyze_shapes
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from ..interp import Interpreter
from ..numerics.resolve import bind_inputs, resolve_all_dims
from ..runtime.engine import EngineOptions, charge_kernel
from ..runtime.executable import Executable

__all__ = ["FallbackOptions", "InterpreterFallback"]


@dataclass
class FallbackOptions:
    """Cost knobs of the eager fallback (mirrors the PyTorch baseline)."""

    #: per-op kernel quality of un-fused eager kernels.
    base_efficiency: float = 0.90
    #: host cost of dispatching one eager kernel; each launch is
    #: serialized behind it (framework overhead dominates small ops).
    dispatch_us: float = 16.8


class InterpreterFallback:
    """Serves an executable's requests through the interpreter.

    Construction is cheap relative to a compile: it builds one singleton
    kernel per optimized-graph op purely for *costing* (the un-fused
    plan never executes data; :meth:`run` computes outputs through the
    interpreter and charges latency from the singleton cost recipes).
    """

    def __init__(self, executable: Executable, device: DeviceProfile,
                 options: FallbackOptions | None = None) -> None:
        self.executable = executable
        self.device = device
        self.options = options or FallbackOptions()
        graph = executable.graph
        self._interp = Interpreter(graph, check_shapes=False,
                                   kernel_layout=True)
        analysis = analyze_shapes(graph, ConstraintLevel.NONE)
        plan = plan_fusion(graph, analysis, FusionConfig.none())
        users = graph.users()
        self._cost_kernels = [
            compile_group(group, users, graph.outputs)
            for group in plan.ordered_groups()]

    def run(self, inputs: Mapping[str, np.ndarray]
            ) -> tuple[list, RunStats]:
        """Interpret one request; returns (outputs, eager-cost stats)."""
        dims = bind_inputs(self.executable.params, inputs)
        resolve_all_dims(self.executable.graph.nodes, dims)
        outputs = self._interp.run(inputs, bindings=dims)
        return outputs, self._charge(dims)

    def _charge(self, dims: dict) -> RunStats:
        """Eager-dispatch cost of the un-fused op stream.

        Eager serialization: the device idles while the host dispatches,
        so a short kernel costs a full dispatch gap.
        """
        options = EngineOptions(base_efficiency=self.options.base_efficiency)
        dispatch_us = self.options.dispatch_us
        stats = RunStats(cache_hit=True)
        for kernel in self._cost_kernels:
            charge_kernel(kernel, dims, stats, None, options, self.device,
                          eager_dispatch_us=dispatch_us)
        # Schedule picks are the engine's to report, not the fallback's.
        stats.details.pop("schedules", None)
        return stats
