"""Simulated baseline systems and the shared executor interface."""

from .base import Executor
from .disc import DiscExecutor
from .executor import BaselineSpec, SimulatedBaseline
from .systems import (ALL_BASELINES, INDUCTOR, ONNXRUNTIME, PYTORCH,
                      TENSORRT, TORCHSCRIPT, TVM, XLA, baseline_names,
                      make_baseline)

__all__ = [
    "Executor", "DiscExecutor",
    "BaselineSpec", "SimulatedBaseline",
    "ALL_BASELINES", "INDUCTOR", "ONNXRUNTIME", "PYTORCH", "TENSORRT",
    "TORCHSCRIPT", "TVM", "XLA", "baseline_names", "make_baseline",
]
