"""E12 — per-shape schedule specialisation through the serving pool.

BladeDISC compiles one shape-generic executable and specialises each
kernel's *schedule* per shape at run time.  Here the Zipf batch-1 BERT
trace is served three ways: a generic engine on heuristic schedules, the
serving pool with the schedule tuner on DISC's compile-once path (a cold
signature runs its shape-generic plan at once, while a background job
freezes the tuner's measured winners into the launch plan), and an
XLA-style per-shape JIT.  Claims: no request stalls on a compile, every
fast-path response is at most as slow as the generic engine on the same
request, and the end-to-end total per query is below the JIT's.

Runnable directly (used by CI; the full run takes seconds)::

    python benchmarks/bench_e12_adaptive_specialization.py
"""

import sys

import pytest

from repro.bench import (e12_adaptive_specialization,
                         format_adaptive_specialization, gate_main,
                         print_and_save)


def _rows(result):
    return {row["engine"]: row for row in result["rows"]}


def failures(result) -> list:
    """Every claim the experiment misses, as human-readable lines."""
    rows = _rows(result)
    serving = rows["serving pool + tuner"]
    jit = rows["per-shape JIT (XLA-style)"]
    found = []
    if serving["stall_compiles"] != 0:
        found.append(f"{serving['stall_compiles']} requests stalled on "
                     "a compile")
    if result["tuned_served"] < 1:
        found.append("no response was served from a tuned plan")
    for row in result["fast_responses"]:
        if row["steady_us"] > row["generic_us"]:
            found.append(f"query {row['query']}: fast path "
                         f"{row['steady_us']:.1f} us > generic "
                         f"{row['generic_us']:.1f} us")
    if serving["total_us_per_query"] >= jit["total_us_per_query"]:
        found.append("serving total us/query is not below the JIT's")
    return found


@pytest.fixture(scope="module")
def experiment():
    result = e12_adaptive_specialization()
    print_and_save("e12_adaptive_specialization", result,
                   format_adaptive_specialization(result))
    return result


def test_bench_e12_adaptive(benchmark, experiment, bert_disc,
                            bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    assert failures(experiment) == []


if __name__ == "__main__":
    sys.exit(gate_main("e12_adaptive_specialization",
                       e12_adaptive_specialization,
                       format_adaptive_specialization, failures))
