"""E3 — fusion-kind ablation table.

Kernels launched, memory traffic, and latency as the fusion kinds are
enabled one by one (none -> kLoop -> +kInput -> +kStitch) on BERT and the
Speech-to-Text encoder.  The paper's claim: each kind strictly improves
all three metrics, with kStitch delivering the reduction-fusion win.
"""

import pytest

from repro.bench import e3_fusion_ablation, format_fusion_ablation, \
    print_and_save


@pytest.fixture(scope="module")
def experiment():
    result = e3_fusion_ablation()
    print_and_save("e3_fusion_ablation", result,
                   format_fusion_ablation(result))
    return result


def test_bench_e3_fusion_ablation(benchmark, experiment, bert_disc,
                                  bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    for model in ("bert", "s2t"):
        rows = [r for r in experiment["rows"] if r["model"] == model]
        kernels = [r["kernels_per_query"] for r in rows]
        assert kernels == sorted(kernels, reverse=True), model
        assert rows[0]["mean_steady_us"] > rows[-1]["mean_steady_us"]
        assert rows[0]["mbytes_per_query"] >= rows[-1]["mbytes_per_query"]
