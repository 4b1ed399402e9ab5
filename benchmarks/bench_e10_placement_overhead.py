"""E10 — shape-computation placement.

Host placement of shape scalar arithmetic removes one kernel launch per
shape op on a length-aware model.  The symbolic shape analysis's share of
compilation time is E6's ``analysis_ms`` column, gated there.
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
