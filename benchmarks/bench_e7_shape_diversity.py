"""E7 — shape-diversity sensitivity figure.

Amortised per-query latency (compilation included) as the number of
distinct shapes in the trace grows from 1 to 16, for BladeDISC and the
systems whose strategy degrades with diversity.  The claim: BladeDISC's
curve is flat; XLA's grows with every new signature; padded engines grow
stepwise per bucket; Inductor sits flat but high.
"""

import pytest

from repro.bench import e7_shape_diversity, format_shape_diversity, \
    print_and_save


@pytest.fixture(scope="module")
def experiment():
    result = e7_shape_diversity()
    print_and_save("e7_shape_diversity", result,
                   format_shape_diversity(result))
    return result


def test_bench_e7_shape_diversity(benchmark, experiment, bert_disc,
                                  bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    series = experiment["series"]
    disc = series["BladeDISC"]
    # flat for the compile-once system
    assert max(disc) < 2.5 * min(disc)
    # strictly growing burden for the per-signature JIT
    xla = series["XLA"]
    assert xla[-1] > xla[0]
    assert xla[-1] > disc[-1]
    # bucketed engines worse than DISC at high diversity too
    assert series["TensorRT"][-1] > disc[-1]
    assert series["TVM"][-1] > disc[-1]
