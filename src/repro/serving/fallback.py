"""The eager fallback path of the serving runtime.

While a signature's launch plan is still compiling in the background —
or forever, if its compiles are quarantined — requests are answered on
the fallback.  It is not a second executor:

- **outputs** come from the executable's own compiled host program,
  bound and executed on the request's shapes (the shape-generic
  executable serves every shape).  A request cannot observe which path
  served it; the property suite and the serving fuzz oracle enforce
  exact equality against a direct :class:`ExecutionEngine` run.
- **cost** is the PyTorch baseline's: one un-fused kernel per op of the
  optimized graph, each launch serialized behind a host dispatch.  That
  keeps E16 honest — the fallback is *slower* than the compiled path by
  construction, and the benefit of background compilation is the
  measured difference.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..baselines.executor import SimulatedBaseline
from ..baselines.systems import PYTORCH
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from ..runtime.executable import Executable

__all__ = ["EagerFallback"]


class EagerFallback:
    """Serves an executable's requests at eager (PyTorch-style) cost.

    The eager baseline is only ever *charged*, never executed: outputs
    come from the executable's host program.
    """

    def __init__(self, executable: Executable,
                 device: DeviceProfile) -> None:
        self.executable = executable
        self._eager = SimulatedBaseline(executable.graph, device, PYTORCH)

    def run(self, inputs: Mapping[str, np.ndarray]
            ) -> tuple[list, RunStats]:
        """Serve one request; returns (outputs, eager-cost stats)."""
        program = self.executable.host_program
        dims = program.bind(inputs)
        outputs = program.execute(inputs, dims)
        return outputs, self._eager.charge(inputs, dims)
