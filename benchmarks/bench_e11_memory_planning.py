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
    gate_main, print_and_save

#: CI gate: the one symbolic class plan's peak must stay within this
#: factor of the per-shape re-planning baseline at *every* sampled shape.
MAX_SYMBOLIC_RATIO = 1.1

#: representative subset for --quick (CI smoke): an attention model, the
#: two-axis TTS pipeline (the hardest packing case), and the
#: embedding-heavy recommender.
QUICK_MODELS = ["bert", "fastspeech2", "dien"]


def failures(result) -> list:
    """Every claim the experiment misses, as human-readable lines."""
    found = []
    rows = result["rows"]
    for row in rows:
        label = f"{row['model']} ({row['fusion']})"
        if row["peak_mb"] > row["naive_mb"] + 1e-9:
            found.append(f"{label}: reused peak exceeds the naive total")
        if row["reuse_factor"] < 1.0:
            found.append(f"{label}: reuse factor "
                         f"{row['reuse_factor']:.2f} < 1")
    by_key = {(r["model"], r["fusion"]): r for r in rows}
    for model in sorted({r["model"] for r in rows}):
        unfused = by_key[(model, "unfused")]
        fused = by_key[(model, "fused")]
        if fused["values"] > unfused["values"]:
            found.append(f"{model}: fusion added intermediates")
        if fused["naive_mb"] > unfused["naive_mb"] + 1e-9:
            found.append(f"{model}: fusion grew the naive total")
    for row in result["diversity"]:
        if not row["proven"]:
            found.append(f"{row['model']}: class peak not provable "
                         f"under the zoo axes")
        if row["worst_ratio"] > MAX_SYMBOLIC_RATIO:
            found.append(
                f"{row['model']}: symbolic one-plan peak "
                f"{row['worst_ratio']:.3f}x the per-shape re-planning "
                f"peak (gate {MAX_SYMBOLIC_RATIO}x)")
        if row["symbolic_peak_mb"] > row["naive_mb"] + 1e-9:
            found.append(f"{row['model']}: symbolic peak exceeds the "
                         f"no-reuse baseline")
    return found


@pytest.fixture(scope="module")
def experiment():
    result = e11_memory_planning()
    print_and_save("e11_memory_planning", result,
                   format_memory_planning(result))
    return result


def test_bench_e11_memory_planning(benchmark, experiment, bert_disc,
                                   bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    assert failures(experiment) == []


if __name__ == "__main__":
    sys.exit(gate_main("e11_memory_planning", e11_memory_planning,
                       format_memory_planning, failures,
                       quick={"models": QUICK_MODELS}))
