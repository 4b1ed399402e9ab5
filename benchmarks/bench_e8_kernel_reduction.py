"""E8 — kernel-launch and memory-traffic reduction table.

Per model: kernels launched and bytes moved for one inference, per-op
eager execution versus the BladeDISC executable.  The fusion pipeline's
mechanical effect — the paper's explanation of *why* the end-to-end wins
happen — is a multi-x reduction in both.
"""

import pytest

from repro.bench import e8_kernel_reduction, format_kernel_reduction, \
    print_and_save


@pytest.fixture(scope="module")
def experiment():
    result = e8_kernel_reduction()
    print_and_save("e8_kernel_reduction", result,
                   format_kernel_reduction(result))
    return result


def test_bench_e8_kernel_reduction(benchmark, experiment, bert_disc,
                                   bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    for row in experiment["rows"]:
        assert row["kernel_reduction"] > 1.3, row["model"]
        assert row["bytes_reduction"] >= 1.0, row["model"]
    by_model = {r["model"]: r for r in experiment["rows"]}
    # transformer models fuse heavily (eager already serves composites
    # like softmax/layer-norm as single fused library kernels, so the
    # eager-vs-DISC kernel ratio is bounded by the remaining glue)
    assert by_model["bert"]["kernel_reduction"] > 1.6
