"""The experiment harness: one function per paper table/figure (E1-E10).

Each function runs the full (simulated) measurement and returns a payload
dict with the raw numbers plus a ``format_*`` companion producing the
paper-style text table.  The ``benchmarks/bench_e*.py`` files are thin
pytest wrappers around these.

Scale note: query counts default to values that keep the numpy substrate
fast; set ``REPRO_BENCH_QUERIES`` to raise them for smoother averages.
"""

from __future__ import annotations

import os
import time
from statistics import mean

import numpy as np

from ..baselines import DiscExecutor, baseline_names, make_baseline
from ..core.fusion.kinds import FusionConfig
from ..core.pipeline import CompileOptions, DiscCompiler
from ..core.symbolic import ConstraintLevel
from ..device import Timeline, device_named
from ..ir import f32
from ..ir.builder import GraphBuilder
from ..models import build_model
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..runtime.engine import EngineOptions, ExecutionEngine
from ..workloads import make_trace
from .reporting import format_table

__all__ = [
    "BENCH_MODELS", "bench_queries",
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
]

#: Zoo configurations used by the end-to-end experiments: moderate sizes
#: that preserve each architecture's op mix while keeping the numpy
#: substrate fast enough to sweep 8 systems x 2 devices.
BENCH_MODELS = {
    "bert": {"layers": 3, "hidden": 256, "heads": 4},
    "albert": {"layers": 3, "hidden": 256, "heads": 4},
    "gpt2": {"layers": 3, "hidden": 256, "heads": 4, "vocab": 4096},
    "t5": {"layers": 2, "hidden": 256, "heads": 4, "vocab": 4096},
    "s2t": {"layers": 3, "hidden": 256, "heads": 4},
    "crnn": {},
    "fastspeech2": {"layers": 2, "hidden": 256, "heads": 4},
    "dien": {},
}


def bench_queries(default: int) -> int:
    return int(os.environ.get("REPRO_BENCH_QUERIES", default))


def _bench_model(name: str):
    return build_model(name, **BENCH_MODELS.get(name, {}))


# ---------------------------------------------------------------------------
# E1/E2 — end-to-end speedup across the zoo (the paper's headline figure)
# ---------------------------------------------------------------------------

def e1_end_to_end(device_name: str = "A10", models: list | None = None,
                  num_queries: int | None = None,
                  distribution: str = "zipf", seed: int = 0) -> dict:
    """Mean steady-state speedup of BladeDISC vs every baseline, per model.

    The paper reports end-to-end inference latency with compilation
    excluded (every system warmed on the trace's shapes); we report the
    same "steady" number, and additionally surface compile totals.
    """
    device = device_named(device_name)
    model_names = models or list(BENCH_MODELS)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(30)
    systems = baseline_names()
    per_model: dict[str, dict] = {}
    disc_latency: dict[str, float] = {}
    compile_us: dict[str, dict] = {}

    for model_name in model_names:
        model = _bench_model(model_name)
        trace = make_trace(model, num_queries, distribution, seed=seed)
        inputs = trace.inputs()

        disc = DiscExecutor(model.graph, device)
        disc_timeline = disc.run_trace(inputs)
        disc_latency[model_name] = disc_timeline.mean_steady_us

        speedups: dict[str, float] = {}
        compiles: dict[str, float] = {}
        for system in systems:
            executor = make_baseline(system, model.graph, device)
            timeline = executor.run_trace(inputs)
            speedups[system] = (timeline.mean_steady_us
                                / disc_timeline.mean_steady_us)
            compiles[system] = timeline.compile_us
        per_model[model_name] = speedups
        compile_us[model_name] = compiles

    summary = {
        system: {
            "mean": mean(per_model[m][system] for m in model_names),
            "max": max(per_model[m][system] for m in model_names),
        }
        for system in systems
    }
    return {
        "experiment": "end_to_end",
        "device": device_name,
        "distribution": distribution,
        "num_queries": num_queries,
        "models": model_names,
        "baselines": systems,
        "speedup": per_model,
        "summary": summary,
        "disc_mean_steady_us": disc_latency,
        "baseline_compile_us": compile_us,
    }


def format_end_to_end(result: dict) -> str:
    headers = ["model"] + result["baselines"]
    rows = []
    for model_name in result["models"]:
        row = [model_name] + [result["speedup"][model_name][s]
                              for s in result["baselines"]]
        rows.append(row)
    rows.append(["(mean)"] + [result["summary"][s]["mean"]
                              for s in result["baselines"]])
    rows.append(["(max)"] + [result["summary"][s]["max"]
                             for s in result["baselines"]])
    title = (f"[{result['device']}] BladeDISC end-to-end speedup over each "
             f"baseline ({result['distribution']} trace, "
             f"{result['num_queries']} queries, compile excluded)")
    return format_table(headers, rows, title)


# ---------------------------------------------------------------------------
# E3 — fusion-kind ablation
# ---------------------------------------------------------------------------

def e3_fusion_ablation(device_name: str = "A10",
                       models: tuple = ("bert", "s2t"),
                       num_queries: int | None = None,
                       seed: int = 0) -> dict:
    """Kernels / bytes / latency as fusion kinds are enabled one by one."""
    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(15)
    variants = [
        ("no-fusion", FusionConfig.none()),
        ("kLoop", FusionConfig.loop_only()),
        ("kLoop+kInput", FusionConfig.loop_and_input()),
        ("kLoop+kInput+kStitch", FusionConfig()),
    ]
    rows = []
    for model_name in models:
        model = _bench_model(model_name)
        trace = make_trace(model, num_queries, "zipf", seed=seed)
        inputs = trace.inputs()
        for label, config in variants:
            options = CompileOptions(fusion=config)
            executor = DiscExecutor(model.graph, device, options)
            timeline = executor.run_trace(inputs)
            rows.append({
                "model": model_name,
                "variant": label,
                "kernels_per_query": timeline.kernels / timeline.calls,
                "mbytes_per_query": timeline.bytes / timeline.calls / 1e6,
                "mean_steady_us": timeline.mean_steady_us,
            })
    return {"experiment": "fusion_ablation", "device": device_name,
            "rows": rows}


def format_fusion_ablation(result: dict) -> str:
    headers = ["model", "fusion", "kernels/query", "MB/query",
               "latency (us)"]
    rows = [[r["model"], r["variant"], r["kernels_per_query"],
             r["mbytes_per_query"], r["mean_steady_us"]]
            for r in result["rows"]]
    return format_table(
        headers, rows,
        f"[{result['device']}] Fusion ablation: adding kLoop, kInput, "
        f"kStitch")


# ---------------------------------------------------------------------------
# E4 — shape-constraint ablation
# ---------------------------------------------------------------------------

def e4_shape_constraints(device_name: str = "A10",
                         models: tuple = ("bert", "gpt2", "s2t"),
                         num_queries: int | None = None,
                         seed: int = 0) -> dict:
    """What the symbolic constraints buy: fusion size and latency by level."""
    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(15)
    rows = []
    for model_name in models:
        model = _bench_model(model_name)
        trace = make_trace(model, num_queries, "zipf", seed=seed)
        inputs = trace.inputs()
        for level in (ConstraintLevel.NONE, ConstraintLevel.EQUALITY,
                      ConstraintLevel.FULL):
            options = CompileOptions(constraint_level=level)
            executor = DiscExecutor(model.graph, device, options)
            stats = executor.executable.report.fusion_stats
            timeline = executor.run_trace(inputs)
            rows.append({
                "model": model_name,
                "level": level.value,
                "kernels": stats["kernels"],
                "fused_ops": stats["fused_ops"],
                "mean_steady_us": timeline.mean_steady_us,
            })
    return {"experiment": "shape_constraints", "device": device_name,
            "rows": rows}


def format_shape_constraints(result: dict) -> str:
    headers = ["model", "constraints", "kernels", "fused ops",
               "latency (us)"]
    rows = [[r["model"], r["level"], r["kernels"], r["fused_ops"],
             r["mean_steady_us"]] for r in result["rows"]]
    return format_table(
        headers, rows,
        f"[{result['device']}] Symbolic shape-constraint ablation "
        f"(none / dim-equality / +product-equality)")


# ---------------------------------------------------------------------------
# E5 — compilation-strategy comparison
# ---------------------------------------------------------------------------

def _k_distinct_trace(model, num_queries: int, k: int, seed: int = 0):
    """A trace cycling through exactly ``k`` distinct shape signatures."""
    axis_values = []
    spans = {}
    for axis, (lo, hi) in model.axes.items():
        spans[axis] = np.linspace(lo, hi, k).astype(int)
    for i in range(num_queries):
        axis_values.append(
            {axis: int(values[i % k]) for axis, values in spans.items()})
    from ..workloads.traces import Trace
    return Trace(model=model, axis_values=axis_values, seed=seed + 1)


def e5_codegen_strategies(device_name: str = "A10", model_name: str = "bert",
                          num_queries: int | None = None,
                          shape_counts: tuple = (1, 4, 16, 64),
                          seed: int = 0) -> dict:
    """Compile-once vs recompile-per-shape vs bucket-and-pad.

    Reports compile events and end-to-end totals (including compilation)
    as the number of distinct shapes in the trace grows.
    """
    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(64)
    model = _bench_model(model_name)
    strategies = {
        "combined (BladeDISC)": lambda: DiscExecutor(model.graph, device),
        "recompile/shape (XLA-style)": lambda: make_baseline(
            "XLA", model.graph, device),
        "bucket+pad (TensorRT-style)": lambda: make_baseline(
            "TensorRT", model.graph, device),
    }
    rows = []
    for k in shape_counts:
        trace = _k_distinct_trace(model, num_queries, k, seed)
        inputs = trace.inputs()
        for label, factory in strategies.items():
            executor = factory()
            timeline = executor.run_trace(inputs)
            rows.append({
                "distinct_shapes": k,
                "strategy": label,
                "compile_events": timeline.compile_events,
                "compile_total_s": timeline.compile_us / 1e6,
                "steady_us_per_query": timeline.mean_steady_us,
                "total_us_per_query": timeline.mean_total_us,
            })
    return {"experiment": "codegen_strategies", "device": device_name,
            "model": model_name, "num_queries": num_queries, "rows": rows}


def format_codegen_strategies(result: dict) -> str:
    headers = ["#shapes", "strategy", "compiles", "compile total (s)",
               "steady us/query", "total us/query"]
    rows = [[r["distinct_shapes"], r["strategy"], r["compile_events"],
             r["compile_total_s"], r["steady_us_per_query"],
             r["total_us_per_query"]] for r in result["rows"]]
    return format_table(
        headers, rows,
        f"[{result['device']}] Codegen strategy comparison on "
        f"{result['model']} ({result['num_queries']} queries)")


# ---------------------------------------------------------------------------
# E6 — compilation overhead per model
# ---------------------------------------------------------------------------

#: bert depths of E6's compile-time sweep (``BENCH_MODELS`` bert width).
E6_DEPTHS = (4, 12, 24)


def e6_compile_overhead(models: list | None = None,
                        depths: tuple = E6_DEPTHS) -> dict:
    """One-time compile cost and kernel counts for every zoo model, plus
    compile time per node for bert at each of ``depths`` layers."""
    model_names = models or list(BENCH_MODELS)
    rows = []
    for model_name in model_names:
        model = _bench_model(model_name)
        compiler = DiscCompiler(CompileOptions())
        start = time.perf_counter()
        executable = compiler.compile(model.graph)
        wall = time.perf_counter() - start
        report = executable.report
        # Post-compile static-analysis audit (outside the timed region):
        # the artifact of every zoo model must lint clean, and the bench
        # table records that it did.
        from ..lint import lint_executable
        lint = lint_executable(executable).summary()
        rows.append({
            "model": model_name,
            "nodes": report.num_nodes,
            "kernels": report.num_kernels,
            "pipeline_wall_s": wall,
            "simulated_compile_s": report.simulated_compile_us / 1e6,
            "analysis_ms": report.analysis_summary.get(
                "analysis_time_s", 0.0) * 1e3,
            "dim_facts": report.analysis_summary.get("dim_facts", 0),
            "product_facts": report.analysis_summary.get(
                "product_facts", 0),
            "lint": "clean" if not lint["diagnostics"]
                    else ",".join(lint["codes"]),
        })
    return {"experiment": "compile_overhead", "rows": rows,
            "depth": e6_depth_sweep(depths)}


def e6_depth_sweep(depths: tuple = E6_DEPTHS) -> list:
    """Best-of-3 pipeline wall time of bert at each depth.

    Compiling once per model is only cheap if compile time grows
    linearly with the graph, so the row to watch is µs per node.
    """
    rows = []
    for layers in depths:
        model = build_model("bert", **{**BENCH_MODELS["bert"],
                                       "layers": layers})
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            executable = DiscCompiler(CompileOptions()).compile(model.graph)
            walls.append(time.perf_counter() - start)
        nodes = executable.report.num_nodes
        rows.append({"layers": layers, "nodes": nodes,
                     "pipeline_wall_s": min(walls),
                     "us_per_node": min(walls) / nodes * 1e6})
    return rows


def format_compile_overhead(result: dict) -> str:
    headers = ["model", "nodes", "kernels", "pipeline wall (s)",
               "simulated compile (s)", "analysis (ms)", "dim facts",
               "product facts", "lint"]
    rows = [[r["model"], r["nodes"], r["kernels"], r["pipeline_wall_s"],
             r["simulated_compile_s"], r["analysis_ms"], r["dim_facts"],
             r["product_facts"], r.get("lint", "clean")]
            for r in result["rows"]]
    text = format_table(headers, rows,
                        "Compilation overhead per model (compile once, "
                        "serve every shape)")
    if not result.get("depth"):
        return text
    depth = format_table(
        ["bert layers", "nodes", "pipeline wall (s)", "us/node"],
        [[r["layers"], r["nodes"], r["pipeline_wall_s"], r["us_per_node"]]
         for r in result["depth"]],
        "Compile time versus depth (best of 3)")
    return text + "\n\n" + depth


# ---------------------------------------------------------------------------
# E7 — sensitivity to shape diversity
# ---------------------------------------------------------------------------

def e7_shape_diversity(device_name: str = "A10", model_name: str = "bert",
                       num_queries: int | None = None,
                       shape_counts: tuple = (1, 2, 4, 8, 16, 32),
                       systems: tuple = ("BladeDISC", "XLA", "TVM",
                                         "TensorRT", "TorchInductor"),
                       seed: int = 0) -> dict:
    """Amortised per-query latency (compile included) vs shape diversity."""
    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(48)
    model = _bench_model(model_name)
    series: dict[str, list] = {system: [] for system in systems}
    for k in shape_counts:
        trace = _k_distinct_trace(model, num_queries, k, seed)
        inputs = trace.inputs()
        for system in systems:
            if system == "BladeDISC":
                executor = DiscExecutor(model.graph, device)
            else:
                executor = make_baseline(system, model.graph, device)
            timeline = executor.run_trace(inputs)
            series[system].append(timeline.mean_total_us)
    return {
        "experiment": "shape_diversity",
        "device": device_name,
        "model": model_name,
        "num_queries": num_queries,
        "shape_counts": list(shape_counts),
        "series": series,
    }


def format_shape_diversity(result: dict) -> str:
    headers = ["#shapes"] + list(result["series"])
    rows = []
    for i, k in enumerate(result["shape_counts"]):
        rows.append([k] + [result["series"][s][i]
                           for s in result["series"]])
    return format_table(
        headers, rows,
        f"[{result['device']}] Amortised us/query (compile included) vs "
        f"distinct shapes, {result['model']}, "
        f"{result['num_queries']} queries")


# ---------------------------------------------------------------------------
# E8 — kernel & memory-traffic reduction
# ---------------------------------------------------------------------------

def e8_kernel_reduction(device_name: str = "A10",
                        models: list | None = None,
                        seed: int = 0) -> dict:
    """Per model: kernels launched and bytes moved, eager vs BladeDISC."""
    device = device_named(device_name)
    model_names = models or list(BENCH_MODELS)
    rows = []
    rng = np.random.default_rng(seed)
    for model_name in model_names:
        model = _bench_model(model_name)
        inputs = model.sample_inputs(rng)
        eager = make_baseline("PyTorch", model.graph, device)
        disc = DiscExecutor(model.graph, device)
        __, eager_stats = eager.run(inputs)
        __, disc_stats = disc.run(inputs)
        rows.append({
            "model": model_name,
            "eager_kernels": eager_stats.kernels_launched,
            "disc_kernels": disc_stats.kernels_launched,
            "kernel_reduction": (eager_stats.kernels_launched
                                 / max(1, disc_stats.kernels_launched)),
            "eager_mbytes": eager_stats.bytes_total / 1e6,
            "disc_mbytes": disc_stats.bytes_total / 1e6,
            "bytes_reduction": (eager_stats.bytes_total
                                / max(1, disc_stats.bytes_total)),
        })
    return {"experiment": "kernel_reduction", "device": device_name,
            "rows": rows}


def format_kernel_reduction(result: dict) -> str:
    headers = ["model", "kernels eager", "kernels DISC", "reduction",
               "MB eager", "MB DISC", "traffic reduction"]
    rows = [[r["model"], r["eager_kernels"], r["disc_kernels"],
             r["kernel_reduction"], r["eager_mbytes"], r["disc_mbytes"],
             r["bytes_reduction"]] for r in result["rows"]]
    return format_table(headers, rows,
                        f"[{result['device']}] Kernel and memory-traffic "
                        f"reduction vs per-op execution")


# ---------------------------------------------------------------------------
# E9 — runtime schedule selection
# ---------------------------------------------------------------------------

def _softmax_micro():
    b = GraphBuilder("softmax_micro")
    rows = b.sym("rows", hint=1024)
    cols = b.sym("cols", hint=512)
    x = b.parameter("x", (rows, cols), f32)
    b.outputs(b.softmax(x, axis=-1))
    return b.graph


def _geomean(values) -> float:
    """Geometric mean of positive ratios; raises on empty or
    non-positive input rather than hiding it in the mean."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(not v > 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values}")
    return float(np.exp(np.mean(np.log(values))))


def e9_schedule_selection(device_name: str = "A10", seed: int = 0,
                          models: list | None = None,
                          num_queries: int | None = None,
                          shape_counts: tuple = (1, 4, 16)) -> dict:
    """Schedule selection and autotuning, three measurements in one:

    - the original micro table — the heuristic selector vs each fixed
      generic schedule at three row-space extremes;
    - the autotuned zoo — per model, the budgeted search's winners vs
      the heuristic picks vs the adversarial worst case, on both the
      schedulable-kernel time (the quantity the tuner optimizes) and
      whole-model device time, with full search accounting;
    - an E7-style shape-diversity sweep — as distinct signatures grow,
      each pays its search once and replays cached winners, so the
      amortized tuned time stays below the heuristic line.
    """
    from ..obs.tracer import CapturingTracer
    from ..tuning import ScheduleTuner, TuningOptions, WorstCaseSelector

    device = device_named(device_name)
    graph = _softmax_micro()
    executable = DiscCompiler(CompileOptions()).compile(graph)
    shapes = [("many short rows", 16384, 64),
              ("balanced", 1024, 1024),
              ("few long rows", 8, 131072)]
    schedules = ["row_per_warp", "row_per_block", "two_pass"]
    rng = np.random.default_rng(seed)
    rows_out = []
    for label, rows, cols in shapes:
        x = rng.normal(size=(rows, cols)).astype(np.float32)
        record = {"shape": label, "rows": rows, "cols": cols}
        for schedule in schedules:
            engine = ExecutionEngine(executable, device, EngineOptions(
                fixed_schedule=schedule))
            __, stats = engine.run({"x": x})
            record[schedule] = stats.device_time_us
        engine = ExecutionEngine(executable, device, EngineOptions())
        __, stats = engine.run({"x": x})
        record["selected"] = stats.device_time_us
        record["best_fixed"] = min(record[s] for s in schedules)
        rows_out.append(record)

    # -- autotuned zoo ------------------------------------------------------
    model_names = models or list(BENCH_MODELS)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(12)
    options = TuningOptions()
    tracer = CapturingTracer()
    worst_selector = WorstCaseSelector(device)
    zoo = []
    for model_name in model_names:
        model = _bench_model(model_name)
        exe = DiscCompiler(CompileOptions()).compile(model.graph)
        trace = make_trace(model, num_queries, "zipf", seed=seed)
        inputs = trace.inputs()[0]
        engine = ExecutionEngine(exe, device)
        signature = engine.host_program.signature(inputs)
        result = ScheduleTuner(device, options, tracer=tracer).tune(
            exe, signature)

        def model_time(selector):
            engine.prepare(inputs, signature, selector=selector,
                           overwrite=True)
            __, stats = engine.run(inputs)
            return stats.device_time_us

        heuristic_model = model_time(None)
        worst_model = model_time(worst_selector)
        tuned_model = model_time(result.selector())
        summary = result.summary()
        zoo.append({
            "model": model_name,
            "kernels": summary["kernels"],
            "improved": summary["improved"],
            "heuristic_kernel_us": summary["heuristic_time_us"],
            "tuned_kernel_us": summary["tuned_time_us"],
            "kernel_speedup": summary["speedup"],
            "heuristic_model_us": heuristic_model,
            "tuned_model_us": tuned_model,
            "worst_model_us": worst_model,
            "model_speedup": heuristic_model / tuned_model,
            "worst_penalty": worst_model / heuristic_model,
            "enumerated": summary["enumerated"],
            "pruned": sum(summary["pruned"].values()),
            "scored": summary["scored"],
            "tuning_spent_us": summary["spent_us"],
            "budget_us": summary["budget_us"],
            "budget_exhausted": summary["budget_exhausted"],
            "picks": summary["picks"],
        })
    autotune = {
        "budget_us": options.budget_us,
        "rows": zoo,
        "geomean_kernel_speedup": _geomean(
            [r["kernel_speedup"] for r in zoo]),
        "geomean_model_speedup": _geomean(
            [r["model_speedup"] for r in zoo]),
        "geomean_worst_penalty": _geomean(
            [r["worst_penalty"] for r in zoo]),
    }

    # -- shape-diversity sweep: search once per signature, replay after -----
    sweep_model = _bench_model("bert")
    sweep_exe = DiscCompiler(CompileOptions()).compile(sweep_model.graph)
    sweep_queries = num_queries * 2
    sweep = []
    for k in shape_counts:
        trace = _k_distinct_trace(sweep_model, sweep_queries, k, seed)
        heuristic_engine = ExecutionEngine(sweep_exe, device)
        tuned_engine = ExecutionEngine(sweep_exe, device)
        tuner = ScheduleTuner(device, options, tracer=tracer)
        tuned_signatures: set = set()
        tuning_spent = heuristic_us = tuned_us = 0.0
        queries = trace.inputs()
        for query in queries:
            signature = tuned_engine.host_program.signature(query)
            if signature not in tuned_signatures:
                tuned_signatures.add(signature)
                result = tuner.tune(sweep_exe, signature)
                tuning_spent += result.spent_us
                tuned_engine.prepare(query, signature,
                                     selector=result.selector(),
                                     overwrite=True)
            __, stats = heuristic_engine.run(query)
            heuristic_us += stats.device_time_us
            __, stats = tuned_engine.run(query)
            tuned_us += stats.device_time_us
        n = len(queries)
        sweep.append({
            "distinct_shapes": k,
            "queries": n,
            "signatures_tuned": len(tuned_signatures),
            "tuning_spent_us": tuning_spent,
            "heuristic_us_per_query": heuristic_us / n,
            "tuned_us_per_query": tuned_us / n,
            "amortized_us_per_query": (tuned_us + tuning_spent) / n,
            "speedup": heuristic_us / tuned_us,
        })

    span_breakdown = {
        name: info for name, info in tracer.spans.summary().items()
        if name.startswith("tuning:")}

    return {"experiment": "schedule_selection", "device": device_name,
            "schedules": schedules, "rows": rows_out,
            "autotune": autotune,
            "shape_sweep": {"model": "bert", "queries": sweep_queries,
                            "rows": sweep},
            "span_breakdown": span_breakdown}


def format_schedule_selection(result: dict) -> str:
    headers = (["shape", "rows", "cols"] + result["schedules"]
               + ["selected", "best fixed"])
    rows = [[r["shape"], r["rows"], r["cols"]]
            + [r[s] for s in result["schedules"]]
            + [r["selected"], r["best_fixed"]]
            for r in result["rows"]]
    text = format_table(
        headers, rows,
        f"[{result['device']}] Softmax kernel device time (us) per "
        f"schedule variant; runtime selection vs fixed")

    autotune = result.get("autotune")
    if autotune:
        headers = ["model", "kernels", "improved", "heur kern us",
                   "tuned kern us", "kern speedup", "heur model us",
                   "tuned model us", "worst model us", "model speedup",
                   "enum", "pruned", "scored", "search us", "exhausted"]
        rows = [[r["model"], r["kernels"], r["improved"],
                 r["heuristic_kernel_us"], r["tuned_kernel_us"],
                 r["kernel_speedup"], r["heuristic_model_us"],
                 r["tuned_model_us"], r["worst_model_us"],
                 r["model_speedup"], r["enumerated"], r["pruned"],
                 r["scored"], r["tuning_spent_us"],
                 "yes" if r["budget_exhausted"] else "no"]
                for r in autotune["rows"]]
        text += "\n\n" + format_table(
            headers, rows,
            f"[{result['device']}] Autotuned schedules vs heuristic "
            f"dispatch across the zoo (budget "
            f"{autotune['budget_us']:.0f}us/signature); geomean "
            f"speedup {autotune['geomean_kernel_speedup']:.3f}x "
            f"schedulable-kernel, "
            f"{autotune['geomean_model_speedup']:.3f}x whole-model, "
            f"worst-case penalty "
            f"{autotune['geomean_worst_penalty']:.3f}x")

    sweep = result.get("shape_sweep")
    if sweep:
        headers = ["#shapes", "queries", "tuned sigs", "search us",
                   "heur us/query", "tuned us/query",
                   "amortized us/query", "speedup"]
        rows = [[r["distinct_shapes"], r["queries"],
                 r["signatures_tuned"], r["tuning_spent_us"],
                 r["heuristic_us_per_query"], r["tuned_us_per_query"],
                 r["amortized_us_per_query"], r["speedup"]]
                for r in sweep["rows"]]
        text += "\n\n" + format_table(
            headers, rows,
            f"[{result['device']}] Shape-diversity sweep on "
            f"{sweep['model']}: each signature pays its search once, "
            f"then replays cached winners")

    breakdown = result.get("span_breakdown")
    if breakdown:
        headers = ["span", "count", "wall us"]
        rows = [[name, info["count"], info["total_us"]]
                for name, info in sorted(breakdown.items())]
        text += "\n\n" + format_table(
            headers, rows,
            "Tuning span breakdown (searches actually executed while "
            "building this table; wall-clock us)")
    return text


# ---------------------------------------------------------------------------
# E10 — host placement of shape computations + analysis overhead
# ---------------------------------------------------------------------------

def _length_feature_model(hidden: int = 256, num_shape_ops: int = 8):
    """A model whose graph computes features *from its own shape*.

    Mirrors length-aware ranking models: the sequence length is read with
    ``dim_size``, pushed through scalar arithmetic, and mixed into the
    activations.  Without host placement every scalar op is a kernel
    launch.
    """
    b = GraphBuilder("length_feature")
    batch = b.sym("batch", hint=8)
    seqlen = b.sym("seqlen", hint=64)
    x = b.parameter("x", (batch, seqlen, hidden), f32)
    length = b.dim_size(x, 1)
    for _ in range(num_shape_ops):
        length = b.mul(b.add(length, b.constant(
            np.asarray(1, dtype=np.int64))), b.constant(
            np.asarray(1, dtype=np.int64)))
    feat = b.cast(length, f32)
    feat = b.mul(feat, b.scalar(1e-3, f32))
    y = b.mul(x, b.broadcast_to(feat, x.shape))
    b.outputs(b.softmax(y, axis=-1))
    return b.graph


def e10_placement_overhead(device_name: str = "A10",
                           num_queries: int | None = None,
                           seed: int = 0) -> dict:
    """Host-placement benefit + symbolic-analysis compile overhead."""
    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(20)
    graph = _length_feature_model()
    executable = DiscCompiler(CompileOptions()).compile(graph)
    rng = np.random.default_rng(seed)
    rows = []
    for enabled in (True, False):
        engine = ExecutionEngine(executable, device, EngineOptions(
            host_placement_enabled=enabled))
        timeline = Timeline()
        for _ in range(num_queries):
            seqlen = int(rng.integers(16, 128))
            x = rng.normal(size=(4, seqlen, 256)).astype(np.float32)
            __, stats = engine.run({"x": x})
            timeline.record(stats)
        rows.append({
            "host_placement": enabled,
            "mean_steady_us": timeline.mean_steady_us,
            "kernels_per_query": timeline.kernels / timeline.calls,
        })
    analysis_rows = e6_compile_overhead(depths=())["rows"]
    return {"experiment": "placement_overhead", "device": device_name,
            "placement_rows": rows, "analysis_rows": analysis_rows}


def format_placement_overhead(result: dict) -> str:
    headers = ["host placement", "latency (us)", "kernels/query"]
    rows = [[str(r["host_placement"]), r["mean_steady_us"],
             r["kernels_per_query"]] for r in result["placement_rows"]]
    part1 = format_table(
        headers, rows,
        f"[{result['device']}] Shape-computation placement "
        f"(length-feature model)")
    headers2 = ["model", "analysis (ms)", "pipeline wall (s)"]
    rows2 = [[r["model"], r["analysis_ms"], r["pipeline_wall_s"]]
             for r in result["analysis_rows"]]
    part2 = format_table(headers2, rows2,
                         "Symbolic analysis cost within compilation")
    return part1 + "\n\n" + part2


# ---------------------------------------------------------------------------
# E11 — intermediate-buffer planning (the pipeline's memory optimisation)
# ---------------------------------------------------------------------------

def e11_memory_planning(models: list | None = None, seed: int = 0,
                        shapes_per_model: int = 8) -> dict:
    """Naive vs liveness-reused intermediate memory, with and without
    fusion — plus the symbolic one-plan-per-class sweep.

    Fusion already eliminates most intermediates (they live inside fused
    kernels); buffer reuse then shares what remains.  The paper's pipeline
    applies both; this experiment separates their contributions.

    The *diversity* sweep prices what the class-wide symbolic plan costs
    under shape churn: for ``shapes_per_model`` seeded in-class shapes it
    compares the one frozen plan's peak against (a) no reuse at all and
    (b) a best-fit-decreasing planner that is allowed to re-plan for every
    concrete shape (``replan_peak_for_shape``).  The class plan is priced
    once and reused for every shape — the per-shape baseline pays a
    re-planning pass per signature.  The gate bounds the worst ratio of
    symbolic peak over per-shape peak.
    """
    from ..runtime.memory import replan_peak_for_shape

    model_names = models or list(BENCH_MODELS)
    rng = np.random.default_rng(seed)
    rows = []
    for model_name in model_names:
        model = _bench_model(model_name)
        inputs = model.sample_inputs(rng)
        for fused, label in ((False, "unfused"), (True, "fused")):
            config = FusionConfig() if fused else FusionConfig.none()
            exe = DiscCompiler(CompileOptions(fusion=config)).compile(
                model.graph)
            dims = exe.host_program.bind(inputs)
            stats = exe.buffer_plan.evaluate(dims)
            rows.append({
                "model": model_name,
                "fusion": label,
                "values": stats["values"],
                "naive_mb": stats["naive_bytes"] / 1e6,
                "peak_mb": stats["peak_bytes"] / 1e6,
                "reuse_factor": stats["reuse_factor"],
                "slots": stats["slots"],
            })

    diversity = []
    for model_name in model_names:
        model = _bench_model(model_name)
        exe = DiscCompiler(CompileOptions(
            assume_ranges=model.axes)).compile(model.graph)
        symbolic = exe.symbolic_plan
        shape_rng = np.random.default_rng(seed)
        naive_mb = symbolic_mb = replan_mb = 0.0
        worst_ratio = 0.0
        for _draw in range(shapes_per_model):
            values = {axis: int(shape_rng.integers(lo, hi + 1))
                      for axis, (lo, hi) in model.axes.items()}
            inputs = model.sample_inputs(shape_rng, values)
            dims = exe.host_program.bind(inputs)
            concrete = exe.buffer_plan.evaluate(dims)
            one_plan = symbolic.peak_at(dims)
            per_shape = replan_peak_for_shape(
                exe.buffer_plan.intervals, dims)["peak_bytes"]
            naive_mb += concrete["naive_bytes"] / 1e6
            symbolic_mb += one_plan / 1e6
            replan_mb += per_shape / 1e6
            if per_shape:
                worst_ratio = max(worst_ratio, one_plan / per_shape)
        diversity.append({
            "model": model_name,
            "shapes": shapes_per_model,
            "proven": bool(symbolic.proven),
            "class_peak_hi_mb": (symbolic.peak_hi_bytes() or 0) / 1e6,
            "naive_mb": naive_mb,
            "symbolic_peak_mb": symbolic_mb,
            "replan_peak_mb": replan_mb,
            "worst_ratio": worst_ratio,
        })
    return {"experiment": "memory_planning", "rows": rows,
            "diversity": diversity, "seed": seed}


def format_memory_planning(result: dict) -> str:
    headers = ["model", "fusion", "intermediates", "naive MB", "peak MB",
               "reuse", "slots"]
    rows = [[r["model"], r["fusion"], r["values"], r["naive_mb"],
             r["peak_mb"], r["reuse_factor"], r["slots"]]
            for r in result["rows"]]
    part1 = format_table(headers, rows,
                         "Intermediate-buffer planning: naive vs "
                         "liveness-reused peak memory")
    diversity = result.get("diversity")
    if not diversity:
        return part1
    headers2 = ["model", "shapes", "proven", "class hi MB", "naive MB",
                "one-plan MB", "per-shape MB", "worst ratio"]
    rows2 = [[d["model"], d["shapes"], d["proven"],
              d["class_peak_hi_mb"], d["naive_mb"],
              d["symbolic_peak_mb"], d["replan_peak_mb"],
              d["worst_ratio"]]
             for d in diversity]
    part2 = format_table(
        headers2, rows2,
        "Shape-diversity sweep: one symbolic class plan vs per-shape "
        "re-planning vs no reuse (summed peak over sampled shapes)")
    return part1 + "\n\n" + part2


# ---------------------------------------------------------------------------
# E12 — adaptive shape specialisation (speculative compilation extension)
# ---------------------------------------------------------------------------

def e12_adaptive_specialization(device_name: str = "A10",
                                model_name: str = "bert",
                                num_queries: int | None = None,
                                seed: int = 0) -> dict:
    """Generic-only vs adaptive specialisation vs per-shape JIT on a
    skewed trace.

    A Zipf trace concentrates traffic on a few hot shapes.  The adaptive
    engine should close (part of) the per-kernel efficiency gap to a
    shape-specialising JIT on the hot shapes, with zero request stalls,
    while the JIT pays a visible compile per signature.
    """
    from ..core.pipeline import DiscCompiler
    from ..runtime.engine import ExecutionEngine
    from ..runtime.specialize import AdaptiveEngine, SpecializationOptions

    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(60)
    model = _bench_model(model_name)
    # Latency-oriented serving: batch pinned to 1, Zipf-skewed lengths —
    # the regime where a handful of short lengths dominate and
    # specialisation has something to chew on.
    trace = make_trace(model, num_queries, "zipf", seed=seed,
                       fixed_axes={"batch": 1})
    inputs = trace.inputs()

    executable = DiscCompiler(CompileOptions()).compile(model.graph)

    generic = ExecutionEngine(executable, device)
    generic_timeline = Timeline()
    for query in inputs:
        __, stats = generic.run(query)
        generic_timeline.record(stats)

    adaptive = AdaptiveEngine(executable, device,
                              SpecializationOptions(threshold=2))
    adaptive_timeline = adaptive.run_trace(inputs)

    xla = make_baseline("XLA", model.graph, device)
    xla_timeline = xla.run_trace(inputs)

    rows = [
        {"engine": "generic (compile once)",
         "mean_steady_us": generic_timeline.mean_steady_us,
         "stall_compiles": 0,
         "background_compiles": 0,
         "total_us_per_query": generic_timeline.mean_total_us},
        {"engine": "adaptive specialisation",
         "mean_steady_us": adaptive_timeline.mean_steady_us,
         "stall_compiles": adaptive_timeline.compile_events,
         "background_compiles": adaptive.specializations_built,
         "total_us_per_query": adaptive_timeline.mean_total_us},
        {"engine": "per-shape JIT (XLA-style)",
         "mean_steady_us": xla_timeline.mean_steady_us,
         "stall_compiles": xla_timeline.compile_events,
         "background_compiles": 0,
         "total_us_per_query": xla_timeline.mean_total_us},
    ]
    return {"experiment": "adaptive_specialization",
            "device": device_name, "model": model_name,
            "num_queries": num_queries,
            "distinct_shapes": trace.distinct_signatures(),
            "adaptive_stats": adaptive.stats(), "rows": rows}


def format_adaptive_specialization(result: dict) -> str:
    headers = ["engine", "steady us/query", "stall compiles",
               "bg specialisations", "total us/query"]
    rows = [[r["engine"], r["mean_steady_us"], r["stall_compiles"],
             r["background_compiles"], r["total_us_per_query"]]
            for r in result["rows"]]
    return format_table(
        headers, rows,
        f"[{result['device']}] Adaptive shape specialisation on "
        f"{result['model']} ({result['num_queries']} queries, "
        f"{result['distinct_shapes']} distinct shapes)")


# ---------------------------------------------------------------------------
# E14 — online serving tail latency (queueing view of the same story)
# ---------------------------------------------------------------------------

def e14_serving_tail_latency(device_name: str = "A10",
                             model_name: str = "bert",
                             num_queries: int | None = None,
                             arrival_rate_qps: float = 600.0,
                             systems: tuple = ("BladeDISC", "PyTorch",
                                               "ONNXRuntime", "XLA"),
                             seed: int = 0) -> dict:
    """Latency percentiles under Poisson load.

    Every system serves the same arrival process and trace.  Compile
    stalls (XLA) queue behind requests and blow up the tail; per-op
    overhead (PyTorch) raises the median and saturates earlier; the
    compile-once executable keeps both percentiles flat.
    """
    from .serving import simulate_serving

    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(60)
    model = _bench_model(model_name)
    trace = make_trace(model, num_queries, "zipf", seed=seed,
                       fixed_axes={"batch": 1})
    inputs = trace.inputs()

    rows = []
    for system in systems:
        if system == "BladeDISC":
            executor = DiscExecutor(model.graph, device)
        else:
            executor = make_baseline(system, model.graph, device)
        # Deployments initialise/compile on the *first* shape before
        # taking traffic; per-shape and per-bucket systems still stall on
        # every shape they have not seen — which is the failure mode this
        # experiment exists to show.
        executor.run(inputs[0])
        result = simulate_serving(executor, inputs, arrival_rate_qps,
                                  seed=seed + 1)
        row = {"system": system}
        row.update(result.summary())
        rows.append(row)
    return {"experiment": "serving_tail_latency", "device": device_name,
            "model": model_name, "arrival_rate_qps": arrival_rate_qps,
            "num_queries": num_queries, "rows": rows}


def format_serving_tail_latency(result: dict) -> str:
    headers = ["system", "p50 us", "p95 us", "p99 us", "max us",
               "stalls", "util"]
    rows = [[r["system"], r["p50_us"], r["p95_us"], r["p99_us"],
             r["max_us"], r["compile_stalls"], r["utilization"]]
            for r in result["rows"]]
    return format_table(
        headers, rows,
        f"[{result['device']}] Serving latency percentiles on "
        f"{result['model']} at {result['arrival_rate_qps']:.0f} qps "
        f"Poisson ({result['num_queries']} queries)")


# ---------------------------------------------------------------------------
# E15 — host-program wall-clock: the compiled host side vs the interpreter
# ---------------------------------------------------------------------------

#: Host-bound zoo configurations for E15.  The kernel compute is
#: *identical* in both engines (bit-identical numerics), so the right
#: instrument for the host side is a regime where it is visible: small
#: hidden sizes and short sequences keep per-call numpy work around a
#: millisecond, instead of hundreds of milliseconds whose run-to-run
#: jitter would drown the overhead being measured.
E15_MODELS = {
    "bert": {"layers": 1, "hidden": 64, "heads": 2, "vocab": 128},
    "albert": {"layers": 2, "hidden": 64, "heads": 2, "vocab": 128},
    "gpt2": {"layers": 1, "hidden": 64, "heads": 2, "vocab": 128},
    "t5": {"layers": 1, "hidden": 64, "heads": 2, "vocab": 128},
    "s2t": {"layers": 1, "hidden": 64, "heads": 2, "vocab": 64},
    "crnn": {"channels": 16, "charset": 32},
    "fastspeech2": {"layers": 1, "hidden": 64, "heads": 2},
    "dien": {"items": 256, "embed_dim": 16},
}


def _shape_points(model, count: int = 3) -> list[dict]:
    """``count`` distinct axis-value points near each axis's low end."""
    return [{axis: min(lo + 2 * i, hi)
             for axis, (lo, hi) in model.axes.items()}
            for i in range(count)]


def _bare_replay_fn(executable, inputs_list: list):
    """The kernel floor: the instruction stream with zero bookkeeping.

    Runs the host program's already-frozen work — gather, execute,
    scatter, release — with no signature, no cache, no stats.  What an
    engine costs *above* this floor is its host overhead, the quantity
    E15 compares across engines (subtracting the floor keeps the numpy
    compute, which both engines share, out of the ratio).
    """
    program = executable.host_program
    prepared = [(inputs, program.bind(inputs)) for inputs in inputs_list]

    def once() -> None:
        for inputs, dims in prepared:
            program.execute(inputs, dims)
    return once


def _time_runners(runners: dict, repeats: int, calls: int,
                  tracer: Tracer | None = None) -> dict:
    """Best-of-``repeats`` us/call per runner, measured *interleaved*.

    Every repeat times each runner once, back to back, so CPU-frequency
    and cache drift hits all of them alike — timing one runner's repeats
    in a block would systematically favour whichever ran last.  Each
    runner gets one untimed warmup call first.

    Timing goes through :class:`repro.obs.Tracer` spans (one
    ``bench:<name>`` span per timed repeat) rather than an ad-hoc
    perf_counter pair, so callers that pass a ``tracer`` get the full
    span record — the E15 span breakdown — for free.
    """
    tracer = tracer if tracer is not None else Tracer()
    for run in runners.values():
        run()
    best = {name: float("inf") for name in runners}
    for _ in range(repeats):
        for name, run in runners.items():
            with tracer.span(f"bench:{name}") as span:
                run()
            best[name] = min(best[name], span.duration_us)
    return {name: value / calls for name, value in best.items()}


def e15_host_overhead(device_name: str = "A10",
                      models: list | None = None,
                      repeats: int | None = None,
                      shapes_per_model: int = 3,
                      seed: int = 0) -> dict:
    """Real host wall-clock: legacy interpreter vs compiled host program.

    Unlike E1-E14, which report *simulated* device microseconds, this
    measures actual Python wall time — the cost the host-program
    lowering and launch-plan cache exist to remove.  Per model the zoo
    replay cycles a few warm signatures through three runners:

    - the **kernel floor** (bare instruction stream, no bookkeeping),
    - the **legacy** per-call interpreter (re-binds, re-resolves,
      re-selects on every call),
    - the **host-program** engine serving every call from its frozen
      launch plan, plus its cold first-call (recording) cost.

    The headline is the *host overhead* ratio — (wall − floor) legacy
    over (wall − floor) warm — so the shared numpy compute does not
    dilute the comparison; the zoo runs at host-bound sizes
    (:data:`E15_MODELS`) for the same reason.  Outputs and stats are
    asserted bit-identical along the way.
    """
    from ..runtime.engine import LegacyExecutionEngine

    device = device_named(device_name)
    model_names = models or list(E15_MODELS)
    repeats = repeats if repeats is not None else bench_queries(5)
    rng = np.random.default_rng(seed)

    rows = []
    for model_name in model_names:
        model = build_model(model_name, **E15_MODELS.get(model_name, {}))
        executable = DiscCompiler(CompileOptions()).compile(model.graph)
        inputs_list = [model.make_inputs(rng, **values)
                       for values in _shape_points(model,
                                                   shapes_per_model)]

        tracer = Tracer()
        cold_engine = ExecutionEngine(executable, device)
        with tracer.span("bench:cold") as cold_span:
            for inputs in inputs_list:
                cold_engine.run(inputs)        # records every plan
        cold_us = cold_span.duration_us / len(inputs_list)

        legacy = LegacyExecutionEngine(executable, device)
        hosted = cold_engine                   # plans are now warm
        identical = True
        for inputs in inputs_list:
            expected_outs, expected = legacy.run(inputs)
            actual_outs, actual = hosted.run(inputs)
            identical = identical and actual == expected and all(
                np.array_equal(e, a) for e, a in
                zip(expected_outs, actual_outs))

        def cycle(engine, _inputs=inputs_list):
            def run() -> None:
                for inputs in _inputs:
                    engine.run(inputs)
            return run

        timed = _time_runners(
            {"floor": _bare_replay_fn(executable, inputs_list),
             "legacy": cycle(legacy), "warm": cycle(hosted)},
            repeats, len(inputs_list), tracer=tracer)
        floor_us = timed["floor"]
        legacy_us = timed["legacy"]
        warm_us = timed["warm"]

        # Overheads below ~1% of the compute floor are inside timer
        # noise; clamping to that resolution keeps an unmeasurably-small
        # warm overhead from exploding the ratio.
        resolution = 0.01 * floor_us
        legacy_overhead = max(legacy_us - floor_us, resolution)
        warm_overhead = max(warm_us - floor_us, resolution)
        rows.append({
            "model": model_name,
            "signatures": len(inputs_list),
            "cold_us": cold_us,
            "legacy_us": legacy_us,
            "warm_us": warm_us,
            "floor_us": floor_us,
            "legacy_overhead_us": legacy_overhead,
            "warm_overhead_us": warm_overhead,
            "overhead_speedup": legacy_overhead / warm_overhead,
            "wall_speedup": legacy_us / warm_us,
            "bit_identical": identical,
            # Full per-span accounting (bench:cold + every timed repeat)
            # for the JSON artifact; the table above ignores it.
            "span_breakdown": tracer.spans.summary(),
        })

    aggregate = {
        "overhead_speedup_geomean": _geomean(
            [r["overhead_speedup"] for r in rows]),
        "wall_speedup_geomean": _geomean(
            [r["wall_speedup"] for r in rows]),
        "bit_identical": all(r["bit_identical"] for r in rows),
    }
    return {"experiment": "host_overhead", "device": device_name,
            "repeats": repeats, "models": model_names,
            "rows": rows, "aggregate": aggregate}


def format_host_overhead(result: dict) -> str:
    headers = ["model", "sigs", "cold us", "legacy us", "warm us",
               "floor us", "overhead x", "wall x", "identical"]
    rows = [[r["model"], r["signatures"], r["cold_us"], r["legacy_us"],
             r["warm_us"], r["floor_us"], r["overhead_speedup"],
             r["wall_speedup"], "yes" if r["bit_identical"] else "NO"]
            for r in result["rows"]]
    agg = result["aggregate"]
    rows.append(["(geomean)", "", "", "", "", "",
                 agg["overhead_speedup_geomean"],
                 agg["wall_speedup_geomean"],
                 "yes" if agg["bit_identical"] else "NO"])
    return format_table(
        headers, rows,
        f"[{result['device']}] Host wall-clock per call (real, not "
        f"simulated): legacy interpreter vs compiled host program, "
        f"best of {result['repeats']} repeats; 'overhead x' excludes "
        f"the shared kernel floor")


# ---------------------------------------------------------------------------
# E16 — async serving: background compilation vs synchronous-compile stalls
# ---------------------------------------------------------------------------

def e16_async_serving(device_name: str = "A10",
                      model_name: str = "bert",
                      num_queries: int | None = None,
                      arrival_rate_qps: float = 600.0,
                      compile_workers: int = 2,
                      seed: int = 0) -> dict:
    """Tail latency through the *runtime* (repro.serving), not the E14
    offline simulation: the same shape-diverse Poisson trace is replayed
    through three configurations of one ``ServingEngine``:

    - **sync compile** — every cold signature stalls the server for its
      compile (the per-shape JIT failure mode the paper targets);
    - **async + fallback** — cold signatures answer immediately on the
      eager fallback while the background pool produces launch
      plans; warm signatures replay plans;
    - **async + injected faults** — same, with every compile failing
      transiently once and every 4th signature permanently (quarantine);
      robustness must cost tail latency, never correctness.

    All three share arrivals, inputs and the compiled executable; time
    is virtual, so the percentiles are exact properties of the schedule,
    not of the host machine.
    """
    from ..core.pipeline import compile_graph
    from ..fuzz.faults import CompileFaultInjector
    from ..serving import (ServingEngine, ServingOptions,
                           SignatureCompileCost, VirtualScheduler)

    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(150)
    model = _bench_model(model_name)
    trace = make_trace(model, num_queries, "zipf", seed=seed,
                       fixed_axes={"batch": 1})
    inputs = trace.inputs()
    rng = np.random.default_rng(seed + 1)
    arrivals = np.cumsum(
        rng.exponential(1e6 / arrival_rate_qps, size=len(inputs)))
    executable = compile_graph(model.graph)
    # Per-signature specialization cost sized so the compile backlog
    # overlaps a meaningful fraction of the trace with 2 workers.
    compile_cost = SignatureCompileCost(fixed_us=40_000.0,
                                        per_kernel_us=800.0)

    modes = [
        ("sync compile", False, None),
        ("async + fallback", True, None),
        ("async + faults", True,
         CompileFaultInjector(transient_attempts=1, permanent_every=4)),
    ]
    rows = []
    for label, background, fault in modes:
        scheduler = VirtualScheduler(seed=seed + 2)
        # Virtual clock in, virtual clock out: span timestamps in the
        # breakdown are exact properties of the schedule too.
        tracer = Tracer(clock=scheduler.clock)
        serving = ServingEngine(
            device, scheduler,
            ServingOptions(queue_capacity=len(inputs),
                           compile_workers=compile_workers,
                           background_compile=background,
                           compile_cost=compile_cost),
            compile_fault=fault,
            tracer=tracer)
        serving.register_model(model_name, executable)
        tickets = []
        for at, query in zip(arrivals, inputs):
            scheduler.call_at(float(at), lambda q=query: tickets.append(
                serving.submit(model_name, q)))
        scheduler.run_until_idle()
        latencies = np.array([t.response.latency_us for t in tickets])
        errors = sum(1 for t in tickets
                     if t.response is None or not t.response.ok)
        counters = serving.counters
        rows.append({
            "mode": label,
            "p50_us": round(float(np.percentile(latencies, 50)), 1),
            "p95_us": round(float(np.percentile(latencies, 95)), 1),
            "p99_us": round(float(np.percentile(latencies, 99)), 1),
            "max_us": round(float(latencies.max()), 1),
            "fast": counters["fast_served"] + counters["sync_served"],
            "fallback": (counters["fallback_served"]
                         + counters["quarantine_served"]),
            "quarantined": len(serving.quarantined_signatures()),
            "compile_stalls": counters["sync_compile_stalls"],
            "errors": errors,
            "span_breakdown": tracer.spans.summary(),
        })
    by_mode = {r["mode"]: r for r in rows}
    return {"experiment": "async_serving", "device": device_name,
            "model": model_name, "arrival_rate_qps": arrival_rate_qps,
            "num_queries": num_queries,
            "distinct_signatures": trace.distinct_signatures(),
            "compile_workers": compile_workers,
            "compile_cost_us": compile_cost.duration_us(
                len(executable.kernels)),
            "rows": rows,
            "p99_improvement": round(
                by_mode["sync compile"]["p99_us"]
                / by_mode["async + fallback"]["p99_us"], 2)}


def format_async_serving(result: dict) -> str:
    headers = ["mode", "p50 us", "p95 us", "p99 us", "max us", "fast",
               "fallback", "quar", "stalls", "errors"]
    rows = [[r["mode"], r["p50_us"], r["p95_us"], r["p99_us"],
             r["max_us"], r["fast"], r["fallback"], r["quarantined"],
             r["compile_stalls"], r["errors"]]
            for r in result["rows"]]
    return format_table(
        headers, rows,
        f"[{result['device']}] Serving-runtime latency on "
        f"{result['model']} at {result['arrival_rate_qps']:.0f} qps "
        f"({result['num_queries']} queries, "
        f"{result['distinct_signatures']} signatures, "
        f"{result['compile_cost_us'] / 1e3:.0f} ms/compile, "
        f"{result['compile_workers']} workers); async p99 is "
        f"{result['p99_improvement']}x below sync")


# ---------------------------------------------------------------------------
# E17 — dynamic batching: the symbolic-shape bucketing throughput frontier
# ---------------------------------------------------------------------------

def e17_dynamic_batching(device_name: str = "A10",
                         model_name: str = "bert",
                         num_queries: int | None = None,
                         rates_qps: list | None = None,
                         max_batch_size: int = 8,
                         max_queue_delay_us: float = 2_000.0,
                         seed: int = 0) -> dict:
    """The throughput/latency frontier of constraint-store batching.

    One serving-realistic trace — single-sequence requests (model batch
    fixed at 1; concatenation is the *batcher's* job) with bimodal
    sequence lengths (chat vs document traffic) — is replayed through an
    unbatched ``ServingEngine`` and a ``BatchingServingEngine`` across a
    Poisson arrival-rate sweep.  Both engines are pre-warmed (every solo
    plan, plus every bucket's batched plans), so the frontier isolates
    *batching*, not compile transients: the unbatched engine saturates
    at ``1 / mean_service``; the batcher rides the device's occupancy
    ramp — a padded batch-8 launch costs far less than eight solo
    launches — and converts padding waste bounded by the pow2 bucket
    ceilings into headroom.

    Time is virtual, so every number is an exact property of the
    schedule; ``benchmarks/bench_e17_dynamic_batching.py`` gates on the
    2 000 qps column (>= 2x batched throughput at a p99 within 1.5x of
    the checked-in E16 async-serving baseline).
    """
    from ..core.pipeline import compile_graph
    from ..serving import (BatchingOptions, BatchingServingEngine,
                           ServingEngine, ServingOptions,
                           VirtualScheduler)

    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(400)
    rates_qps = rates_qps or [600.0, 1_000.0, 2_000.0, 4_000.0, 10_000.0]
    # Serving-scale depth: 12 layers puts the solo saturation point
    # (~500 qps on A10) well below the 2 000 qps gate rate, so the
    # sweep contrasts service *capacity*, not arrival accounting.
    model = build_model(model_name, layers=12, hidden=256, heads=4) \
        if model_name == "bert" else _bench_model(model_name)
    trace = make_trace(model, num_queries, "bimodal", seed=seed,
                       fixed_axes={"batch": 1})
    inputs = trace.inputs()
    executable = compile_graph(model.graph)
    rng = np.random.default_rng(seed + 1)
    # One arrival skeleton scaled per rate: every rate sees the same
    # request order, only compressed in time.
    gaps = rng.exponential(1.0, size=len(inputs))
    # Plan capacity must hold every distinct signature, or the LRU
    # thrashes and the sweep measures eviction, not batching.
    base_options = dict(
        queue_capacity=64,
        engine=EngineOptions(plan_capacity=None))
    batching = BatchingOptions(max_batch_size=max_batch_size,
                               max_queue_delay_us=max_queue_delay_us)

    def build(batched: bool, scheduler, tracer):
        if batched:
            serving = BatchingServingEngine(
                device, scheduler, ServingOptions(**base_options),
                batching=batching, tracer=tracer)
        else:
            serving = ServingEngine(device, scheduler,
                                    ServingOptions(**base_options),
                                    tracer=tracer)
        entry = serving.register_model(model_name, executable)
        signatures = set()
        for query in inputs:
            signature = entry.engine.host_program.signature(query)
            if signature not in signatures:
                signatures.add(signature)
                entry.engine.prepare(query, signature)
        if batched:
            bucketer = serving.bucketer(model_name)
            for padded in {bucketer.padded_signature(s)
                           for s in signatures}:
                size = 2
                while size <= max_batch_size:
                    entry.engine.prepare_batched(padded, size)
                    size *= 2
        return serving

    rows = []
    for rate in rates_qps:
        arrivals = np.cumsum(gaps * (1e6 / rate))
        for batched in (False, True):
            scheduler = VirtualScheduler(seed=seed + 2)
            tracer = Tracer(clock=scheduler.clock,
                            metrics=MetricsRegistry())
            serving = build(batched, scheduler, tracer)
            tickets = []
            for at, query in zip(arrivals, inputs):
                scheduler.call_at(
                    float(at), lambda q=query: tickets.append(
                        serving.submit(model_name, q)))
            scheduler.run_until_idle()
            ok = [t.response for t in tickets
                  if t.response is not None and t.response.ok]
            latencies = np.array([r.latency_us for r in ok])
            makespan_us = max(r.finish_us for r in ok) - arrivals[0]
            counters = serving.counters
            size_hist = tracer.metrics.histogram("serving.batch.size")
            waste_hist = tracer.metrics.histogram(
                "serving.batch.padding_waste_frac")
            rows.append({
                "mode": "batched" if batched else "unbatched",
                "rate_qps": rate,
                "throughput_qps": round(len(ok) / makespan_us * 1e6, 1),
                "p50_us": round(float(np.percentile(latencies, 50)), 1),
                "p95_us": round(float(np.percentile(latencies, 95)), 1),
                "p99_us": round(float(np.percentile(latencies, 99)), 1),
                "ok": len(ok),
                "shed": counters["shed"],
                "batches": counters.get("batches_formed", 0),
                "batched_served": counters.get("batched_served", 0),
                "mean_batch": round(size_hist.mean, 2)
                if size_hist.count else None,
                "mean_padding_waste": round(waste_hist.mean, 3)
                if waste_hist.count else None,
            })

    def row(mode, rate):
        return next(r for r in rows
                    if r["mode"] == mode and r["rate_qps"] == rate)

    gate_rate = rates_qps[len(rates_qps) // 2]
    gain = round(row("batched", gate_rate)["throughput_qps"]
                 / row("unbatched", gate_rate)["throughput_qps"], 2)
    p99_ratio = round(row("batched", gate_rate)["p99_us"]
                      / row("unbatched", rates_qps[0])["p99_us"], 2)
    return {"experiment": "dynamic_batching", "device": device_name,
            "model": model_name, "num_queries": num_queries,
            "distinct_signatures": trace.distinct_signatures(),
            "max_batch_size": max_batch_size,
            "max_queue_delay_us": max_queue_delay_us,
            "rates_qps": list(rates_qps),
            "rows": rows,
            "gate_rate_qps": gate_rate,
            "throughput_gain_at_gate": gain,
            "p99_vs_unbatched_baseline": p99_ratio}


def format_dynamic_batching(result: dict) -> str:
    headers = ["mode", "rate qps", "tput qps", "p50 us", "p95 us",
               "p99 us", "ok", "shed", "batches", "mean sz", "waste"]
    rows = [[r["mode"], f"{r['rate_qps']:.0f}", r["throughput_qps"],
             r["p50_us"], r["p95_us"], r["p99_us"], r["ok"], r["shed"],
             r["batches"],
             "-" if r["mean_batch"] is None else r["mean_batch"],
             "-" if r["mean_padding_waste"] is None
             else r["mean_padding_waste"]]
            for r in result["rows"]]
    return format_table(
        headers, rows,
        f"[{result['device']}] Dynamic batching on {result['model']} "
        f"({result['num_queries']} queries, "
        f"{result['distinct_signatures']} signatures, batch<="
        f"{result['max_batch_size']}, flush "
        f"{result['max_queue_delay_us'] / 1e3:.1f} ms): "
        f"{result['throughput_gain_at_gate']}x throughput at "
        f"{result['gate_rate_qps']:.0f} qps, p99 "
        f"{result['p99_vs_unbatched_baseline']}x the low-rate "
        f"unbatched baseline")


# ---------------------------------------------------------------------------
# E18 — fleet routing: signature affinity vs signature-blind placement
# ---------------------------------------------------------------------------

def e18_fleet_routing(device_name: str = "A10",
                      model_name: str = "bert",
                      num_queries: int | None = None,
                      arrival_rate_qps: float = 2_000.0,
                      replica_counts: tuple = (1, 2, 4, 8),
                      plan_capacity: int = 64,
                      seed: int = 0) -> dict:
    """Tail latency of a multi-replica fleet under signature-affine vs
    signature-blind routing.

    One shape-diverse zipf trace (single-sequence requests, ~139
    distinct signatures at the default 600 queries) is replayed through
    a ``FleetEngine`` across a replica sweep, once per routing policy.
    Every replica runs a *bounded* launch-plan LRU (``plan_capacity``),
    pre-warmed to steady state (the cache holds whatever the capacity
    retains — the fleet has been serving this traffic forever).  The
    working set exceeds one replica's capacity, and that asymmetry is
    the whole experiment:

    - **affinity** — rendezvous hashing partitions the signature space,
      so each replica's share *fits* its plan cache: requests ride the
      compiled fast path and the per-replica queue stays stable;
    - **round_robin / least_outstanding** — signature-blind placement
      makes every replica see every signature: the LRU thrashes, evicted
      signatures recompile in the background while requests serve on the
      eager fallback (~7x the fused service time), utilisation
      crosses 1 and the queue — hence p99 — blows up.

    Affinity spill is disabled (``affinity_spill_depth`` huge) so the
    sweep isolates pure placement; the spill valve is exercised by the
    unit suite.  Every OK response from every configuration is checked
    bit-identical to a direct ``ExecutionEngine`` run — routing may
    move work, never change it.  Time is virtual;
    ``benchmarks/bench_e18_fleet_routing.py`` gates on the 4-replica
    column (affinity p99 >= 1.5x below round-robin, zero mismatches).
    """
    from ..core.pipeline import compile_graph
    from ..serving import (FleetEngine, FleetOptions, ServingOptions,
                           SignatureCompileCost, VirtualScheduler)

    device = device_named(device_name)
    num_queries = num_queries if num_queries is not None \
        else bench_queries(600)
    gate_replicas = 4
    # Serving-scale depth (as E17): the fused fast path holds ~500
    # qps/replica, the eager fallback ~80 — the gate rate sits between
    # the two at 4 replicas, so placement decides stability.
    model = build_model(model_name, layers=12, hidden=256, heads=4) \
        if model_name == "bert" else _bench_model(model_name)
    trace = make_trace(model, num_queries, "zipf", seed=seed,
                       fixed_axes={"batch": 1})
    inputs = trace.inputs()
    executable = compile_graph(model.graph)
    reference = ExecutionEngine(executable, device)
    expected = [reference.run(query)[0] for query in inputs]
    rng = np.random.default_rng(seed + 1)
    # One arrival skeleton scaled once: every configuration sees the
    # same request order at the same instants.
    arrivals = np.cumsum(
        rng.exponential(1e6 / arrival_rate_qps, size=len(inputs)))
    # Cheap-ish recompiles: an evicted signature re-enters the plan
    # cache in a few ms, so round-robin measures steady-state thrash,
    # not a one-off compile storm.
    compile_cost = SignatureCompileCost(fixed_us=2_000.0,
                                        per_kernel_us=10.0)
    serving_options = ServingOptions(
        queue_capacity=len(inputs), compile_workers=2,
        compile_cost=compile_cost,
        engine=EngineOptions(plan_capacity=plan_capacity))

    def run_config(policy: str, replicas: int) -> dict:
        scheduler = VirtualScheduler(seed=seed + 2)
        fleet = FleetEngine(
            device, scheduler,
            FleetOptions(replicas=replicas, policy=policy,
                         affinity_spill_depth=10**9,
                         serving=serving_options))
        fleet.register_model(model_name, executable)
        seen: set = set()
        signatures = []
        for query in inputs:
            entry = fleet.replicas()[0].engine.model(model_name)
            signature = entry.engine.host_program.signature(query)
            if signature not in seen:
                seen.add(signature)
                signatures.append((signature, query))
        for replica in fleet.replicas():
            entry = replica.engine.model(model_name)
            for signature, query in signatures:
                entry.engine.prepare(query, signature)
        tickets = []
        for at, query in zip(arrivals, inputs):
            scheduler.call_at(float(at), lambda q=query: tickets.append(
                fleet.submit(model_name, q)))
        scheduler.run_until_idle()
        mismatches = errors = 0
        for ticket, want in zip(tickets, expected):
            response = ticket.response
            if response is None or not response.ok:
                errors += 1
            elif any(e.tobytes() != g.tobytes()
                     for e, g in zip(want, response.outputs)):
                mismatches += 1
        latencies = np.array([t.response.latency_us for t in tickets
                              if t.response is not None])
        paths = {"fast": 0, "fallback": 0}
        recompiles = 0
        for replica in fleet.replicas() + fleet.retired:
            counters = replica.engine.counters
            paths["fast"] += counters["fast_served"]
            paths["fallback"] += (counters["fallback_served"]
                                  + counters["quarantine_served"])
            recompiles += replica.engine.pool.stats.jobs_submitted
        return {
            "policy": policy, "replicas": replicas,
            "p50_us": round(float(np.percentile(latencies, 50)), 1),
            "p95_us": round(float(np.percentile(latencies, 95)), 1),
            "p99_us": round(float(np.percentile(latencies, 99)), 1),
            "max_us": round(float(latencies.max()), 1),
            "fast": paths["fast"], "fallback": paths["fallback"],
            "recompiles": recompiles,
            "affinity_hits": fleet.counters["affinity_hits"],
            "affinity_spills": fleet.counters["affinity_spills"],
            "errors": errors, "mismatches": mismatches,
        }

    rows = []
    for replicas in replica_counts:
        for policy in ("affinity", "round_robin"):
            rows.append(run_config(policy, replicas))
        if replicas == gate_replicas:
            rows.append(run_config("least_outstanding", replicas))

    def row(policy, replicas):
        return next(r for r in rows if r["policy"] == policy
                    and r["replicas"] == replicas)

    gate_replicas = gate_replicas if gate_replicas in replica_counts \
        else replica_counts[-1]
    aff = row("affinity", gate_replicas)
    blind = row("round_robin", gate_replicas)
    return {"experiment": "fleet_routing", "device": device_name,
            "model": model_name, "num_queries": num_queries,
            "arrival_rate_qps": arrival_rate_qps,
            "distinct_signatures": trace.distinct_signatures(),
            "plan_capacity": plan_capacity,
            "replica_counts": list(replica_counts),
            "rows": rows,
            "gate_replicas": gate_replicas,
            "p99_ratio_at_gate": round(blind["p99_us"] / aff["p99_us"],
                                       2),
            "mismatches": sum(r["mismatches"] for r in rows),
            "errors": sum(r["errors"] for r in rows)}


def format_fleet_routing(result: dict) -> str:
    headers = ["policy", "replicas", "p50 us", "p95 us", "p99 us",
               "fast", "fallback", "recompiles", "spills", "errors",
               "mismatch"]
    rows = [[r["policy"], r["replicas"], r["p50_us"], r["p95_us"],
             r["p99_us"], r["fast"], r["fallback"], r["recompiles"],
             r["affinity_spills"], r["errors"], r["mismatches"]]
            for r in result["rows"]]
    return format_table(
        headers, rows,
        f"[{result['device']}] Fleet routing on {result['model']} at "
        f"{result['arrival_rate_qps']:.0f} qps "
        f"({result['num_queries']} queries, "
        f"{result['distinct_signatures']} signatures, plan cache "
        f"{result['plan_capacity']}/replica): affinity p99 is "
        f"{result['p99_ratio_at_gate']}x below round-robin at "
        f"{result['gate_replicas']} replicas; "
        f"{result['mismatches']} output mismatches")
