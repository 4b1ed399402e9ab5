"""E4 — symbolic shape-constraint ablation table.

Fusion quality when the analysis is restricted: no constraints at all
(structural shapes only), dim-equality only, and the full store including
reshape product-equality.  The full level must fuse at least as much as
the restricted ones — the reshape-crossing loop fusions are exactly what
product equality buys.
"""

import pytest

from repro.bench import e4_shape_constraints, format_shape_constraints, \
    print_and_save


@pytest.fixture(scope="module")
def experiment():
    result = e4_shape_constraints()
    print_and_save("e4_shape_constraints", result,
                   format_shape_constraints(result))
    return result


def test_bench_e4_shape_constraints(benchmark, experiment, bert_disc,
                                    bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    for model in ("bert", "gpt2", "s2t"):
        rows = {r["level"]: r for r in experiment["rows"]
                if r["model"] == model}
        assert rows["full"]["kernels"] <= rows["equality"]["kernels"] \
            <= rows["none"]["kernels"] + 1
        assert rows["full"]["fused_ops"] >= rows["none"]["fused_ops"]
        assert rows["full"]["mean_steady_us"] <= \
            rows["none"]["mean_steady_us"] * 1.02
