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
                         format_host_overhead, print_and_save)

#: CI gate: warm host overhead must beat legacy by at least this factor.
REQUIRED_SPEEDUP = 2.0

#: representative subset for --quick (CI smoke): an attention model, the
#: conv/LSTM pipeline, and the embedding-heavy recommender.
QUICK_MODELS = ["bert", "crnn", "dien"]


@pytest.fixture(scope="module")
def experiment():
    result = e15_host_overhead("A10")
    print_and_save("e15_host_overhead", result,
                   format_host_overhead(result))
    return result


def test_bench_e15_host_overhead(benchmark, experiment, bert_disc,
                                 bert_inputs):
    bert_disc.run(bert_inputs)           # warm the launch plan
    benchmark(bert_disc.run, bert_inputs)
    aggregate = experiment["aggregate"]
    assert aggregate["bit_identical"], \
        "host-program engine diverged from the legacy engine"
    assert aggregate["overhead_speedup_geomean"] >= REQUIRED_SPEEDUP, (
        f"warm host overhead only "
        f"{aggregate['overhead_speedup_geomean']:.2f}x below legacy "
        f"(need >= {REQUIRED_SPEEDUP}x)")
    assert all(r["overhead_speedup"] > 1.0 for r in experiment["rows"]), \
        "some model got slower on the host side"


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="E15 host-overhead perf smoke",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help=f"subset ({', '.join(QUICK_MODELS)}) with "
                             f"fewer repeats; what CI runs")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the geomean overhead speedup "
                             f"is >= {REQUIRED_SPEEDUP}x (implied by "
                             "--quick)")
    parser.add_argument("--device", default="A10")
    args = parser.parse_args(argv)

    if args.quick:
        result = e15_host_overhead(args.device, models=QUICK_MODELS,
                                   repeats=3)
    else:
        result = e15_host_overhead(args.device)
    name = "e15_host_overhead.quick" if args.quick else "e15_host_overhead"
    print_and_save(name, result, format_host_overhead(result))

    if args.quick or args.check:
        aggregate = result["aggregate"]
        if not aggregate["bit_identical"]:
            print("FAIL: engines disagree on outputs or stats")
            return 1
        speedup = aggregate["overhead_speedup_geomean"]
        if speedup < REQUIRED_SPEEDUP:
            print(f"FAIL: warm host overhead speedup {speedup:.2f}x "
                  f"< required {REQUIRED_SPEEDUP}x")
            return 1
        # Timing now runs through obs tracer spans: every row of the
        # JSON artifact must carry the span breakdown, and the cold
        # recording pass must appear in it.
        for row in result["rows"]:
            breakdown = row.get("span_breakdown")
            if not breakdown or "bench:cold" not in breakdown:
                print(f"FAIL: {row['model']} row is missing its tracer "
                      f"span_breakdown")
                return 1
        print(f"OK: warm host overhead {speedup:.2f}x below legacy "
              f"(gate {REQUIRED_SPEEDUP}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
