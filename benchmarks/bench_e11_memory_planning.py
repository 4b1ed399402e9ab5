"""E11 — intermediate-buffer planning table (pipeline memory optimisation).

Naive total intermediate memory vs the liveness-reused peak, with fusion
off and on, for every zoo model.  Claims: fusion removes most
intermediates outright; buffer reuse shrinks what remains; the combination
bounds peak memory for arbitrary shapes without per-shape tuning.

The shape-diversity sweep extends the claim to the *symbolic* planner:
one class-wide reuse plan (frozen at compile time, replayed for every
signature) must stay within ``MAX_SYMBOLIC_RATIO`` of a
best-fit-decreasing planner that is allowed to re-plan for every concrete
shape.  That is the price of planning once per class instead of once per
shape — the CI perf-smoke gate pins it.

Runnable directly as a perf-smoke gate (used by CI)::

    python benchmarks/bench_e11_memory_planning.py --quick

A ``--quick`` run saves ``e11_memory_planning.quick.{json,txt}``, so it never
overwrites the full run's artifact.
"""

import sys

import pytest

from repro.bench import e11_memory_planning, format_memory_planning, \
    print_and_save

#: CI gate: the one symbolic class plan's peak must stay within this
#: factor of the per-shape re-planning baseline at *every* sampled shape.
MAX_SYMBOLIC_RATIO = 1.1

#: representative subset for --quick (CI smoke): an attention model, the
#: two-axis TTS pipeline (the hardest packing case), and the
#: embedding-heavy recommender.
QUICK_MODELS = ["bert", "fastspeech2", "dien"]


@pytest.fixture(scope="module")
def experiment():
    result = e11_memory_planning()
    print_and_save("e11_memory_planning", result,
                   format_memory_planning(result))
    return result


def _check_gate(result: dict) -> list:
    failures = []
    for row in result["diversity"]:
        if not row["proven"]:
            failures.append(f"{row['model']}: class peak not provable "
                            f"under the zoo axes")
        if row["worst_ratio"] > MAX_SYMBOLIC_RATIO:
            failures.append(
                f"{row['model']}: symbolic one-plan peak "
                f"{row['worst_ratio']:.3f}x the per-shape re-planning "
                f"peak (gate {MAX_SYMBOLIC_RATIO}x)")
        if row["symbolic_peak_mb"] > row["naive_mb"] + 1e-9:
            failures.append(f"{row['model']}: symbolic peak exceeds the "
                            f"no-reuse baseline")
    return failures


def test_bench_e11_memory_planning(benchmark, experiment, bert_disc,
                                   bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    rows = experiment["rows"]
    for row in rows:
        assert row["peak_mb"] <= row["naive_mb"] + 1e-9
        assert row["reuse_factor"] >= 1.0
    by_key = {(r["model"], r["fusion"]): r for r in rows}
    for model in {r["model"] for r in rows}:
        unfused = by_key[(model, "unfused")]
        fused = by_key[(model, "fused")]
        assert fused["values"] <= unfused["values"], model
        assert fused["naive_mb"] <= unfused["naive_mb"] + 1e-9, model


def test_bench_e11_symbolic_one_plan_gate(experiment):
    failures = _check_gate(experiment)
    assert not failures, "\n".join(failures)


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="E11 memory-planning perf smoke",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help=f"subset ({', '.join(QUICK_MODELS)}) with "
                             "the symbolic one-plan gate enforced")
    parser.add_argument("--check", action="store_true",
                        help="enforce the gate on the full zoo "
                             "(implied by --quick)")
    parser.add_argument("--shapes", type=int, default=8,
                        help="sampled shapes per model (default 8)")
    args = parser.parse_args(argv)

    if args.quick:
        result = e11_memory_planning(models=QUICK_MODELS,
                                     shapes_per_model=args.shapes)
    else:
        result = e11_memory_planning(shapes_per_model=args.shapes)
    name = "e11_memory_planning" + (".quick" if args.quick else "")
    print_and_save(name, result, format_memory_planning(result))

    if args.quick or args.check:
        failures = _check_gate(result)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        worst = max(r["worst_ratio"] for r in result["diversity"])
        print(f"OK: symbolic one-plan peak within {worst:.3f}x of "
              f"per-shape re-planning on every sampled shape "
              f"(gate {MAX_SYMBOLIC_RATIO}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
