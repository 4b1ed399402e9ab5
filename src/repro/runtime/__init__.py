"""Runtime abstraction layer: executables, host programs, engine, caches."""

from .caches import make_signature_fn, shape_signature
from .engine import (EngineOptions, ExecutionEngine,
                     LegacyExecutionEngine, charge_kernel)
from .executable import CompileReport, Executable
from .hostprog import HostInstruction, HostProgram, lower_program
from .launchplan import (LaunchPlan, LaunchPlanCache, SharedPlans,
                         format_signature)
from .memory import (BufferPlan, Interval, plan_buffers,
                     replan_peak_for_shape, scale_batched_memory)
from .symplan import (MemoryBudget, SlotExtent, SymbolicBufferPlan,
                      measure_peak_bytes, plan_symbolic)

__all__ = [
    "shape_signature", "make_signature_fn",
    "EngineOptions", "ExecutionEngine", "LegacyExecutionEngine",
    "charge_kernel",
    "CompileReport", "Executable",
    "HostInstruction", "HostProgram", "lower_program",
    "LaunchPlan", "LaunchPlanCache", "SharedPlans", "format_signature",
    "BufferPlan", "Interval", "plan_buffers",
    "replan_peak_for_shape", "scale_batched_memory",
    "MemoryBudget", "SlotExtent", "SymbolicBufferPlan",
    "measure_peak_bytes", "plan_symbolic",
]
