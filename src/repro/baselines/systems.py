"""The seven baseline systems the paper compares against.

Each spec encodes that system's *documented* dynamic-shape strategy — the
source of its strength and of its failure mode:

- **PyTorch (eager)** — no compilation at all; per-op kernels issued from a
  Python dispatcher.  Excellent flexibility, dispatch-bound at inference.
- **TorchScript** — traced graph, cheaper dispatch, a pointwise-only fuser
  that cannot cross reshapes and leaves reductions unfused.
- **TVM** — static-shape auto-scheduled kernels of excellent quality;
  dynamic dims are bucketed to powers of two and padded, and every bucket
  pays a (very large) auto-tuning compile.
- **ONNX Runtime** — per-op optimized kernels plus pattern fusion (fused
  LayerNorm/GELU/Softmax via keeping composites intact); no general
  cross-op codegen.
- **XLA** — strong loop+input fusion and near-peak codegen, but compiles
  per *exact* shape signature: every unseen shape stalls on a full JIT.
- **Torch Inductor (dynamic shape)** — compiles once with symbolic guards;
  in the paper's evaluation window its dynamic-shape kernels were markedly
  less efficient than its static ones and reduction fusion was limited, so
  it lands between TorchScript and the static compilers.
- **TensorRT** — the best kernels of the lot (tactic-searched engines) and
  pattern fusion, but engines are built per optimisation-profile bucket
  with padding, and each engine build is expensive.

Efficiency/dispatch constants are calibrated so that per-model speedups on
the simulated A10/T4 land in the neighbourhood the paper's abstract reports
(see EXPERIMENTS.md); the *structure* (who pays which cost) is the model.
"""

from __future__ import annotations

from ..core.fusion.kinds import FusionConfig
from ..core.symbolic import ConstraintLevel
from ..device.profiles import DeviceProfile
from ..ir.graph import Graph
from ..runtime.caches import round_up_pow2
from .base import Executor
from .executor import BaselineSpec, SimulatedBaseline

__all__ = [
    "PYTORCH", "TORCHSCRIPT", "TVM", "ONNXRUNTIME", "XLA", "INDUCTOR",
    "TENSORRT", "ALL_BASELINES", "make_baseline", "baseline_names",
]


PYTORCH = BaselineSpec(
    name="PyTorch",
    lower_composites=False,
    constraint_level=ConstraintLevel.NONE,
    fusion=FusionConfig.none(),
    base_efficiency=0.90,
    dispatch_us=16.8,
    eager_dispatch=True,
    compile_grade=None,
    compile_policy="none",
    optimize_graph=False,
)

TORCHSCRIPT = BaselineSpec(
    name="TorchScript",
    lower_composites=False,
    constraint_level=ConstraintLevel.NONE,
    # The TorchScript fusers (TE/NVFuser) specialise on profiled static
    # shapes and bail out under shape dynamism, so no cross-op fusion
    # survives in the dynamic-shape setting the paper measures.
    fusion=FusionConfig.none(),
    base_efficiency=0.90,
    dispatch_us=15.4,
    eager_dispatch=True,
    compile_grade="session_init",
    compile_policy="once",
)

TVM = BaselineSpec(
    name="TVM",
    lower_composites=True,
    constraint_level=ConstraintLevel.FULL,
    fusion=FusionConfig.loop_and_input(),
    base_efficiency=0.98,
    # Relay VM dynamic dispatch: per-kernel host cost well above a static
    # graph runtime's.
    dispatch_us=5.5,
    eager_dispatch=False,
    compile_grade="autotune",
    compile_policy="per_bucket",
    bucket=round_up_pow2,
)

ONNXRUNTIME = BaselineSpec(
    name="ONNXRuntime",
    lower_composites=False,
    constraint_level=ConstraintLevel.NONE,
    fusion=FusionConfig(enable_loop=True, enable_input=False,
                        enable_stitch=False, loop_include_reshape=False),
    base_efficiency=0.83,
    dispatch_us=3.0,
    eager_dispatch=False,
    compile_grade="session_init",
    compile_policy="once",
)

XLA = BaselineSpec(
    name="XLA",
    lower_composites=True,
    constraint_level=ConstraintLevel.FULL,
    fusion=FusionConfig.loop_and_input(),
    base_efficiency=0.93,
    dispatch_us=0.9,
    eager_dispatch=False,
    compile_grade="jit",
    compile_policy="per_signature",
)

INDUCTOR = BaselineSpec(
    name="TorchInductor",
    lower_composites=True,
    constraint_level=ConstraintLevel.FULL,
    fusion=FusionConfig(enable_loop=True, enable_input=True,
                        enable_stitch=False),
    base_efficiency=0.24,
    dispatch_us=1.5,
    eager_dispatch=False,
    compile_grade="tracing_jit",
    compile_policy="once",
    guard_overhead_us=40.0,
)

TENSORRT = BaselineSpec(
    name="TensorRT",
    lower_composites=False,
    constraint_level=ConstraintLevel.NONE,
    fusion=FusionConfig(enable_loop=True, enable_input=False,
                        enable_stitch=False, loop_include_reshape=False),
    # Dynamic-profile engines carry shape-generic kernels that trail
    # TensorRT's fixed-shape tactics.
    base_efficiency=0.79,
    dispatch_us=2.0,
    eager_dispatch=False,
    compile_grade="engine_build",
    compile_policy="per_bucket",
    bucket=round_up_pow2,
)

ALL_BASELINES = (PYTORCH, TORCHSCRIPT, TVM, ONNXRUNTIME, XLA, INDUCTOR,
                 TENSORRT)

_BY_NAME = {spec.name: spec for spec in ALL_BASELINES}


def baseline_names() -> list[str]:
    """The seven baseline system names, in the paper's order."""
    return [spec.name for spec in ALL_BASELINES]


def make_baseline(name: str, graph: Graph,
                  device: DeviceProfile) -> Executor:
    """Instantiate the named baseline executor for one model/device."""
    try:
        spec = _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown baseline {name!r}; "
                       f"available: {baseline_names()}") from None
    return SimulatedBaseline(graph, device, spec)
