"""E9 — multi-schedule codegen benefit + schedule autotuning.

A softmax kernel compiled once with three schedule variants, measured at
three row-space extremes: no single fixed schedule is best everywhere,
and the runtime selector must track the per-shape best variant.  On top
of that dispatch baseline, the budgeted autotuner searches the tuned
row-tile/vector families per zoo model and must beat the heuristic
picks by >= 1.15x geomean on schedulable-kernel device time — while
staying inside its search budget and changing no output bit.

Run directly with ``--quick`` as the CI perf gate.  A ``--quick`` run
saves ``e9_schedule_selection.quick.{json,txt}``, so it never overwrites
the full run's artifact.
"""

import sys

import numpy as np
import pytest

from repro.bench import e9_schedule_selection, format_schedule_selection, \
    print_and_save
from repro.core import compile_graph
from repro.device import A10
from repro.ir import GraphBuilder, f32
from repro.runtime import ExecutionEngine

#: geomean tuned-vs-heuristic speedup on schedulable-kernel device time
#: the zoo must clear (acceptance bar for the autotuner).
REQUIRED_GEOMEAN_SPEEDUP = 1.15


@pytest.fixture(scope="module")
def experiment():
    result = e9_schedule_selection("A10")
    print_and_save("e9_schedule_selection", result,
                   format_schedule_selection(result))
    return result


def check_selector(experiment):
    schedules = experiment["schedules"]
    no_single_winner = set()
    for record in experiment["rows"]:
        best = min(schedules, key=lambda s: record[s])
        no_single_winner.add(best)
        assert record["selected"] <= 1.25 * record["best_fixed"], record
    assert len(no_single_winner) >= 2, \
        "expected different shapes to favour different schedules"


def check_autotune(experiment):
    autotune = experiment["autotune"]
    assert autotune["geomean_kernel_speedup"] \
        >= REQUIRED_GEOMEAN_SPEEDUP, autotune
    assert autotune["geomean_model_speedup"] >= 1.0
    for record in autotune["rows"]:
        # Tuned never slower than heuristic — per model, both on the
        # kernels the search scored and end to end.
        assert record["tuned_kernel_us"] \
            <= record["heuristic_kernel_us"] * (1 + 1e-9), record
        assert record["tuned_model_us"] \
            <= record["heuristic_model_us"] * (1 + 1e-9), record
        # The adversarial bound brackets the decision from below.
        assert record["worst_model_us"] \
            >= record["heuristic_model_us"] * (1 - 1e-9), record
        # Budgeted search: spent time inside the configured ceiling.
        assert record["tuning_spent_us"] <= record["budget_us"], record
        assert record["enumerated"] == record["pruned"] \
            + record["scored"], record
    sweep = experiment["shape_sweep"]["rows"]
    for record in sweep:
        assert record["tuned_us_per_query"] \
            <= record["heuristic_us_per_query"] * (1 + 1e-9), record
        assert record["signatures_tuned"] == record["distinct_shapes"]


def check_bit_identity():
    """A tuned plan changes schedule picks, never numerics."""
    from repro.tuning import ScheduleTuner

    b = GraphBuilder("softmax_micro")
    rows, cols = b.sym("rows"), b.sym("cols")
    x = b.parameter("x", (rows, cols), f32)
    b.outputs(b.softmax(x, axis=-1))
    exe = compile_graph(b.graph)
    data = np.random.default_rng(0).normal(
        size=(512, 2048)).astype(np.float32)
    engine = ExecutionEngine(exe, A10)
    expected, heuristic_stats = engine.run({"x": data})
    signature = engine.host_program.signature({"x": data})
    result = ScheduleTuner(A10).tune(exe, signature)
    engine.prepare({"x": data}, signature, selector=result.selector(),
                   overwrite=True)
    outputs, tuned_stats = engine.run({"x": data})
    for ref, got in zip(expected, outputs):
        assert ref.tobytes() == got.tobytes(), \
            "tuned outputs diverged from heuristic outputs"
    assert tuned_stats.device_time_us <= heuristic_stats.device_time_us


def test_bench_e9_schedule_selection(benchmark, experiment):
    b = GraphBuilder("softmax_micro")
    rows, cols = b.sym("rows"), b.sym("cols")
    x = b.parameter("x", (rows, cols), f32)
    b.outputs(b.softmax(x, axis=-1))
    engine = ExecutionEngine(compile_graph(b.graph), A10)
    data = np.random.default_rng(0).normal(
        size=(1024, 256)).astype(np.float32)
    benchmark(engine.run, {"x": data})
    check_selector(experiment)


def test_bench_e9_autotuning(experiment):
    check_autotune(experiment)
    check_bit_identity()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="run the perf gate and exit nonzero on "
                             "regression")
    parser.add_argument("--device", default="A10")
    args = parser.parse_args(argv)

    result = e9_schedule_selection(args.device)
    name = "e9_schedule_selection" + (".quick" if args.quick else "")
    print_and_save(name, result, format_schedule_selection(result))
    if args.quick:
        try:
            check_selector(result)
            check_autotune(result)
            check_bit_identity()
        except AssertionError as exc:
            print(f"FAIL: {exc}")
            return 1
        autotune = result["autotune"]
        print(f"OK: geomean tuned speedup "
              f"{autotune['geomean_kernel_speedup']:.3f}x "
              f"schedulable-kernel "
              f"({autotune['geomean_model_speedup']:.3f}x whole-model) "
              f">= {REQUIRED_GEOMEAN_SPEEDUP}x, every search inside its "
              f"{autotune['budget_us']:.0f}us budget, outputs "
              f"bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
