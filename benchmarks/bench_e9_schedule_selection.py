"""E9 — multi-schedule codegen benefit + schedule autotuning.

A softmax kernel compiled once with three schedule variants, measured at
three row-space extremes: no single fixed schedule is best everywhere,
and the runtime selector must track the per-shape best variant.  On top
of that dispatch baseline, the budgeted autotuner searches the tuned
row-tile/vector families per zoo model and must beat the heuristic
picks by >= 1.15x geomean on schedulable-kernel device time — while
staying inside its search budget and changing no output bit.

Run directly with ``--quick`` as the CI perf gate.  A ``--quick`` run is
the full run saved as ``e9_schedule_selection.quick.{json,txt}``, so it
never overwrites the checked-in artifact.
"""

import sys

import numpy as np
import pytest

from repro.bench import e9_schedule_selection, format_schedule_selection, \
    gate_main, print_and_save
from repro.core import compile_graph
from repro.device import A10
from repro.ir import GraphBuilder, f32
from repro.runtime import ExecutionEngine

#: geomean tuned-vs-heuristic speedup on schedulable-kernel device time
#: the zoo must clear (acceptance bar for the autotuner).
REQUIRED_GEOMEAN_SPEEDUP = 1.15


def failures(result) -> list:
    """Every claim the experiment's tables miss, as human-readable lines
    (the bit-identity check runs its own kernel: see
    :func:`bit_identity_failures`)."""
    found = []
    schedules = result["schedules"]
    winners = set()
    for record in result["rows"]:
        winners.add(min(schedules, key=lambda s: record[s]))
        if record["selected"] > 1.25 * record["best_fixed"]:
            found.append(f"selector picked {record['selected']:.1f} us, "
                         f"over 1.25x the best fixed "
                         f"{record['best_fixed']:.1f} us: {record}")
    if len(winners) < 2:
        found.append("expected different shapes to favour different "
                     "schedules")

    autotune = result["autotune"]
    if autotune["geomean_kernel_speedup"] < REQUIRED_GEOMEAN_SPEEDUP:
        found.append(f"geomean tuned speedup "
                     f"{autotune['geomean_kernel_speedup']:.3f}x "
                     f"schedulable-kernel < {REQUIRED_GEOMEAN_SPEEDUP}x")
    if autotune["geomean_model_speedup"] < 1.0:
        found.append(f"geomean whole-model speedup "
                     f"{autotune['geomean_model_speedup']:.3f}x < 1")
    for record in autotune["rows"]:
        model = record["model"]
        # Tuned never slower than heuristic — per model, both on the
        # kernels the search scored and end to end.
        if record["tuned_kernel_us"] \
                > record["heuristic_kernel_us"] * (1 + 1e-9):
            found.append(f"{model}: tuned kernels slower than heuristic")
        if record["tuned_model_us"] \
                > record["heuristic_model_us"] * (1 + 1e-9):
            found.append(f"{model}: tuned model slower than heuristic")
        # The adversarial bound brackets the decision from below.
        if record["worst_model_us"] \
                < record["heuristic_model_us"] * (1 - 1e-9):
            found.append(f"{model}: worst-case picks beat the heuristic")
        # Budgeted search: spent time inside the configured ceiling.
        if record["tuning_spent_us"] > record["budget_us"]:
            found.append(f"{model}: search spent "
                         f"{record['tuning_spent_us']:.0f} us of a "
                         f"{record['budget_us']:.0f} us budget")
        if record["enumerated"] != record["pruned"] + record["scored"]:
            found.append(f"{model}: {record['enumerated']} enumerated != "
                         f"{record['pruned']} pruned + "
                         f"{record['scored']} scored")
    for record in result["shape_sweep"]["rows"]:
        shapes = record["distinct_shapes"]
        if record["tuned_us_per_query"] \
                > record["heuristic_us_per_query"] * (1 + 1e-9):
            found.append(f"{shapes} shapes: tuned us/query slower than "
                         f"heuristic")
        if record["signatures_tuned"] != shapes:
            found.append(f"{shapes} shapes: {record['signatures_tuned']} "
                         f"signatures tuned")
    return found


def _softmax():
    b = GraphBuilder("softmax_micro")
    rows, cols = b.sym("rows"), b.sym("cols")
    x = b.parameter("x", (rows, cols), f32)
    b.outputs(b.softmax(x, axis=-1))
    return compile_graph(b.graph)


def bit_identity_failures() -> list:
    """A tuned plan changes schedule picks, never numerics."""
    from repro.tuning import ScheduleTuner

    exe = _softmax()
    data = np.random.default_rng(0).normal(
        size=(512, 2048)).astype(np.float32)
    engine = ExecutionEngine(exe, A10)
    expected, heuristic_stats = engine.run({"x": data})
    signature = engine.host_program.signature({"x": data})
    result = ScheduleTuner(A10).tune(exe, signature)
    engine.prepare({"x": data}, signature, selector=result.selector(),
                   overwrite=True)
    outputs, tuned_stats = engine.run({"x": data})
    found = []
    if any(ref.tobytes() != got.tobytes()
           for ref, got in zip(expected, outputs)):
        found.append("tuned outputs diverged from heuristic outputs")
    if tuned_stats.device_time_us > heuristic_stats.device_time_us:
        found.append(f"tuned softmax {tuned_stats.device_time_us:.1f} us "
                     f"slower than heuristic "
                     f"{heuristic_stats.device_time_us:.1f} us")
    return found


@pytest.fixture(scope="module")
def experiment():
    result = e9_schedule_selection()
    print_and_save("e9_schedule_selection", result,
                   format_schedule_selection(result))
    return result


def test_bench_e9_schedule_selection(benchmark, experiment):
    engine = ExecutionEngine(_softmax(), A10)
    data = np.random.default_rng(0).normal(
        size=(1024, 256)).astype(np.float32)
    benchmark(engine.run, {"x": data})
    assert failures(experiment) == []


def test_bench_e9_tuned_outputs_are_bit_identical():
    assert bit_identity_failures() == []


if __name__ == "__main__":
    sys.exit(gate_main(
        "e9_schedule_selection", e9_schedule_selection,
        format_schedule_selection,
        lambda result: failures(result) + bit_identity_failures(),
        quick={}))
