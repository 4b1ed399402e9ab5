"""E2 — the paper's headline figure, T4 half.

Same protocol as E1 on the simulated T4 (lower bandwidth, much lower fp32
peak).  Factors shift but the ordering of systems must be preserved.
"""

import pytest

from repro.baselines import DiscExecutor
from repro.bench import e1_end_to_end, format_end_to_end, print_and_save
from repro.device import T4


@pytest.fixture(scope="module")
def experiment():
    result = e1_end_to_end("T4")
    print_and_save("e2_end_to_end_t4", result, format_end_to_end(result))
    return result


def test_bench_e2_disc_query_t4(benchmark, experiment, bert_model,
                                bert_inputs):
    disc = DiscExecutor(bert_model.graph, T4)
    benchmark(disc.run, bert_inputs)
    summary = experiment["summary"]
    for system, stats in summary.items():
        assert stats["mean"] > 0.95, f"collapsed against {system} on T4"
    assert summary["PyTorch"]["mean"] > summary["XLA"]["mean"]
