"""Experiment harness regenerating every paper table and figure."""

from .reporting import format_table, gate_main, print_and_save, \
    results_dir, save_results
from .experiments import (
    BENCH_MODELS,
    e1_end_to_end, format_end_to_end,
    e3_fusion_ablation, format_fusion_ablation,
    e4_shape_constraints, format_shape_constraints,
    e5_codegen_strategies, format_codegen_strategies,
    e6_compile_overhead, format_compile_overhead,
    e7_shape_diversity, format_shape_diversity,
    e8_kernel_reduction, format_kernel_reduction,
    e9_schedule_selection, format_schedule_selection,
    e10_placement_overhead, format_placement_overhead,
    e11_memory_planning, format_memory_planning,
    e12_adaptive_specialization, format_adaptive_specialization,
    e14_serving_tail_latency, format_serving_tail_latency,
    e15_host_overhead, format_host_overhead,
    e16_async_serving, format_async_serving,
    e17_dynamic_batching, format_dynamic_batching,
    e18_fleet_routing, format_fleet_routing,
)
from .serving import ServingResult, simulate_serving

__all__ = [
    "format_table", "gate_main", "print_and_save", "results_dir",
    "save_results",
    "BENCH_MODELS",
    "e1_end_to_end", "format_end_to_end",
    "e3_fusion_ablation", "format_fusion_ablation",
    "e4_shape_constraints", "format_shape_constraints",
    "e5_codegen_strategies", "format_codegen_strategies",
    "e6_compile_overhead", "format_compile_overhead",
    "e7_shape_diversity", "format_shape_diversity",
    "e8_kernel_reduction", "format_kernel_reduction",
    "e9_schedule_selection", "format_schedule_selection",
    "e10_placement_overhead", "format_placement_overhead",
    "e11_memory_planning", "format_memory_planning",
    "e12_adaptive_specialization", "format_adaptive_specialization",
    "e14_serving_tail_latency", "format_serving_tail_latency",
    "e15_host_overhead", "format_host_overhead",
    "e16_async_serving", "format_async_serving",
    "e17_dynamic_batching", "format_dynamic_batching",
    "e18_fleet_routing", "format_fleet_routing",
    "ServingResult", "simulate_serving",
]
