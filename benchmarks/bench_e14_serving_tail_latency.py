"""E14 — online serving tail latency (the queueing view).

The same dynamic-shape story measured the way a deployment feels it:
Poisson arrivals into a single-device FIFO queue.  Claims: compile-once
keeps p50≈p99; a per-shape JIT's recompiles queue behind live traffic and
blow the tail by orders of magnitude; per-op overhead raises the eager
median and drives utilisation toward saturation at the same load.
"""

import pytest

from repro.bench import (e14_serving_tail_latency,
                         format_serving_tail_latency, print_and_save)


@pytest.fixture(scope="module")
def experiment():
    result = e14_serving_tail_latency()
    print_and_save("e14_serving_tail_latency", result,
                   format_serving_tail_latency(result))
    return result


def test_bench_e14_serving(benchmark, experiment, bert_disc,
                           bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    rows = {r["system"]: r for r in experiment["rows"]}
    disc = rows["BladeDISC"]
    assert disc["compile_stalls"] == 0
    assert disc["p99_us"] < 5 * disc["p50_us"]  # flat tail
    assert rows["XLA"]["compile_stalls"] > 0
    assert rows["XLA"]["p99_us"] > 100 * disc["p99_us"]
    assert rows["PyTorch"]["p50_us"] > disc["p50_us"]
    assert rows["PyTorch"]["utilization"] > disc["utilization"]
