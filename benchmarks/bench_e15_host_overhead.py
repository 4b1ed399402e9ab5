"""E15 — host wall-clock: compiled host program vs legacy interpreter.

The one experiment measuring *real* time, not simulated microseconds.
The legacy engine re-derives shape-generic structure on every call
(binding, whole-graph symbol resolution, dict environments, schedule
selection, cost evaluation); the host program freezes all of it at
compile time or into per-signature launch plans.  Claims: warm-signature
host overhead at least 2x lower than the legacy path across the zoo
replay, with outputs and simulated stats bit-identical.

Runnable directly as a perf-smoke gate (used by CI)::

    python benchmarks/bench_e15_host_overhead.py --quick

A ``--quick`` run saves ``e15_host_overhead.quick.{json,txt}``, so it
never overwrites the full run's artifact that EXPERIMENTS.md quotes.
"""

import os
import sys

# One BLAS thread, set before numpy loads: on a 2-core host a threaded
# matmul can stall a process for milliseconds per call, which would make
# a wall-clock row measure the thread pool instead of the host program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from repro.bench import (e15_host_overhead,  # noqa: E402
                         format_host_overhead, gate_main, print_and_save)

#: CI gate: warm host overhead must beat legacy by at least this factor.
REQUIRED_SPEEDUP = 2.0

#: representative subset for --quick (CI smoke): an attention model, the
#: conv/LSTM pipeline, and the embedding-heavy recommender.
QUICK_MODELS = ["bert", "crnn", "dien"]


def failures(result) -> list:
    """Every claim the experiment misses, as human-readable lines."""
    found = []
    aggregate = result["aggregate"]
    if not aggregate["bit_identical"]:
        found.append("host-program engine diverged from the legacy engine "
                     "on outputs or stats")
    speedup = aggregate["overhead_speedup_geomean"]
    if speedup < REQUIRED_SPEEDUP:
        found.append(f"warm host overhead only {speedup:.2f}x below "
                     f"legacy (need >= {REQUIRED_SPEEDUP}x)")
    for row in result["rows"]:
        if not row["overhead_speedup"] > 1.0:
            found.append(f"{row['model']}: host side got slower "
                         f"({row['overhead_speedup']:.2f}x)")
        # Timing runs through obs tracer spans: every row carries the
        # span breakdown, and the cold recording pass appears in it.
        if "bench:cold" not in row.get("span_breakdown", {}):
            found.append(f"{row['model']} row is missing its tracer "
                         f"span_breakdown")
    return found


@pytest.fixture(scope="module")
def experiment():
    result = e15_host_overhead()
    print_and_save("e15_host_overhead", result,
                   format_host_overhead(result))
    return result


def test_bench_e15_host_overhead(benchmark, experiment, bert_disc,
                                 bert_inputs):
    bert_disc.run(bert_inputs)           # warm the launch plan
    benchmark(bert_disc.run, bert_inputs)
    assert failures(experiment) == []


if __name__ == "__main__":
    sys.exit(gate_main("e15_host_overhead", e15_host_overhead,
                       format_host_overhead, failures,
                       quick={"models": QUICK_MODELS, "repeats": 3}))
