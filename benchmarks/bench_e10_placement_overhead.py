"""E10 — shape-computation placement + analysis-overhead table.

Two results: (a) host placement of shape scalar arithmetic removes one
kernel launch per shape op on a length-aware model; (b) the symbolic shape
analysis itself is a negligible share of compilation time for every zoo
model.
"""

import pytest

from repro.bench import e10_placement_overhead, \
    format_placement_overhead, print_and_save


@pytest.fixture(scope="module")
def experiment():
    result = e10_placement_overhead()
    print_and_save("e10_placement_overhead", result,
                   format_placement_overhead(result))
    return result


def test_bench_e10_placement(benchmark, experiment, bert_disc,
                             bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    enabled, disabled = experiment["placement_rows"]
    assert enabled["mean_steady_us"] < disabled["mean_steady_us"]
    assert enabled["kernels_per_query"] < disabled["kernels_per_query"]
    for row in experiment["analysis_rows"]:
        assert row["analysis_ms"] < 1e3 * row["pipeline_wall_s"]
