"""E5 — codegen strategy comparison table.

Three ways to generate code for dynamic shapes, measured as the number of
distinct shapes in the trace grows: recompile per shape signature
(XLA-style), one padded engine per bucket (TensorRT-style), and the
paper's compile-time/runtime combined approach.  Claims: the combined
strategy compiles exactly once regardless of diversity; recompilation cost
scales with the number of distinct shapes; padding pays a steady-state tax.
"""

import pytest

from repro.bench import e5_codegen_strategies, format_codegen_strategies, \
    print_and_save


@pytest.fixture(scope="module")
def experiment():
    result = e5_codegen_strategies()
    print_and_save("e5_codegen_strategies", result,
                   format_codegen_strategies(result))
    return result


def test_bench_e5_codegen_strategies(benchmark, experiment, bert_disc,
                                     bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    rows = {(r["strategy"], r["distinct_shapes"]): r
            for r in experiment["rows"]}
    disc = "combined (BladeDISC)"
    xla = "recompile/shape (XLA-style)"
    trt = "bucket+pad (TensorRT-style)"
    for k in (1, 4, 16):
        assert rows[(disc, k)]["compile_events"] == 1
    assert rows[(xla, 16)]["compile_events"] > rows[(xla, 1)][
        "compile_events"]
    assert rows[(xla, 16)]["compile_total_s"] > \
        10 * rows[(disc, 16)]["compile_total_s"] / 10
    # padding tax: TRT steady latency above DISC's at high diversity
    assert rows[(trt, 16)]["steady_us_per_query"] > \
        rows[(disc, 16)]["steady_us_per_query"]
