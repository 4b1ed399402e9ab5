"""E1 — the paper's headline figure, A10 half.

End-to-end inference speedup of BladeDISC over PyTorch, TorchScript, TVM,
ONNX Runtime, XLA, Torch Inductor (dynamic shape) and TensorRT across the
eight-model zoo on the simulated A10.  The abstract reports average
speedups of 3.54 / 3.12 / 1.95 / 1.47 / 1.24 / 2.93 / 1.46x respectively;
the acceptance criterion is the *shape*: BladeDISC wins on average against
every system, with PyTorch/TorchScript/Inductor the largest gaps and
XLA/TensorRT the smallest.
"""

import pytest

from repro.bench import e1_end_to_end, format_end_to_end, print_and_save


@pytest.fixture(scope="module")
def experiment():
    result = e1_end_to_end()
    print_and_save("e1_end_to_end_a10", result, format_end_to_end(result))
    return result


def test_bench_e1_disc_query_a10(benchmark, experiment, bert_disc,
                                 bert_inputs):
    benchmark(bert_disc.run, bert_inputs)
    summary = experiment["summary"]
    for system, stats in summary.items():
        assert stats["mean"] > 1.0, f"lost to {system} on average"
    # the paper's strongest baselines
    assert summary["XLA"]["mean"] < summary["PyTorch"]["mean"]
    assert summary["TensorRT"]["mean"] < summary["TorchScript"]["mean"]
