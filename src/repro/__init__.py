"""repro — a reproduction of BladeDISC (SIGMOD 2023).

An ML compiler for dynamic tensor shapes, built in pure Python over a
simulated GPU substrate:

- :mod:`repro.ir` — tensor IR with symbolic dims;
- :mod:`repro.core` — the paper's contribution: cross-level symbolic shape
  analysis, shape-propagation-based fusion (kLoop/kInput/kStitch), and
  compile-time/runtime combined code generation;
- :mod:`repro.runtime` — the runtime abstraction layer (RAL);
- :mod:`repro.serving` — concurrent serving runtime with background
  compilation and an eager fallback path;
- :mod:`repro.tuning` — budgeted, cost-model-guided schedule autotuning
  whose winners freeze into cached launch plans;
- :mod:`repro.device` — analytic A10/T4 GPU cost model;
- :mod:`repro.baselines` — seven simulated baseline systems;
- :mod:`repro.models` / :mod:`repro.workloads` / :mod:`repro.bench` — the
  evaluation stack.

Quickstart::

    from repro import GraphBuilder, f32, compile_graph, ExecutionEngine, A10

    b = GraphBuilder("toy")
    batch = b.sym("batch")
    x = b.parameter("x", (batch, 128), f32)
    w = b.parameter("w", (128, 64), f32)
    b.outputs(b.softmax(b.dot(x, w), axis=-1))

    exe = compile_graph(b.graph)        # compile ONCE
    engine = ExecutionEngine(exe, A10)
    outputs, stats = engine.run({"x": ..., "w": ...})  # ANY batch size
"""

from .ir import (DType, Graph, GraphBuilder, Node, SymDim, boolean, f16,
                 f32, f64, i32, i64, print_graph, verify)
from .core import (CompileOptions, ConstraintLevel, DiscCompiler,
                   FusionConfig, FusionKind, compile_graph)
from .runtime import (EngineOptions, Executable, ExecutionEngine,
                      HostProgram, LaunchPlan, LaunchPlanCache,
                      LegacyExecutionEngine, MemoryBudget,
                      SymbolicBufferPlan, measure_peak_bytes)
from .device import A10, T4, DeviceProfile, RunStats, Timeline, device_named
from .interp import evaluate
from .frontend import TracedTensor, trace
from .baselines import DiscExecutor, baseline_names, make_baseline
from .models import Model, build_model, zoo
from .workloads import make_trace
from .serving import (BatchingOptions, BatchingServingEngine, ClusterSim,
                      FleetEngine, FleetOptions, ServingEngine,
                      ServingOptions, VirtualClock, VirtualScheduler)
from .tuning import ScheduleTuner, TuningOptions, TuningResult

__version__ = "1.0.0"

__all__ = [
    "DType", "Graph", "GraphBuilder", "Node", "SymDim", "boolean", "f16",
    "f32", "f64", "i32", "i64", "print_graph", "verify",
    "CompileOptions", "ConstraintLevel", "DiscCompiler", "FusionConfig",
    "FusionKind", "compile_graph",
    "EngineOptions", "Executable", "ExecutionEngine",
    "HostProgram", "LaunchPlan", "LaunchPlanCache",
    "LegacyExecutionEngine", "MemoryBudget", "SymbolicBufferPlan",
    "measure_peak_bytes",
    "A10", "T4", "DeviceProfile", "RunStats", "Timeline", "device_named",
    "evaluate",
    "TracedTensor", "trace",
    "DiscExecutor", "baseline_names", "make_baseline",
    "Model", "build_model", "zoo",
    "make_trace",
    "BatchingOptions", "BatchingServingEngine",
    "ClusterSim", "FleetEngine", "FleetOptions",
    "ServingEngine", "ServingOptions",
    "VirtualClock", "VirtualScheduler",
    "ScheduleTuner", "TuningOptions", "TuningResult",
    "__version__",
]
