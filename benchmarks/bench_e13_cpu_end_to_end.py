"""E13 — CPU deployment end-to-end (the system's non-GPU target).

BladeDISC also deploys on x86 and AArch64 servers; the same compiled
pipeline is driven against the CPU device profiles here.  On CPU the
kernel-launch economics change (calls are cheap, parallelism is scarce):
framework dispatch overhead still loses, padding still wastes compute, and
BladeDISC must keep winning on average — with smaller factors against the
launch-bound baselines than on GPU.
"""

import pytest

from repro.baselines import DiscExecutor
from repro.bench import e1_end_to_end, format_end_to_end, print_and_save
from repro.device import CPU_X86


@pytest.fixture(scope="module")
def experiment():
    result = e1_end_to_end("CPU-x86", models=["bert", "gpt2", "s2t", "dien"],
                           num_queries=12)
    print_and_save("e13_cpu_end_to_end", result,
                   format_end_to_end(result))
    return result


def test_bench_e13_cpu(benchmark, experiment, bert_model, bert_inputs):
    disc = DiscExecutor(bert_model.graph, CPU_X86)
    benchmark(disc.run, bert_inputs)
    summary = experiment["summary"]
    for system, stats in summary.items():
        assert stats["mean"] > 0.9, f"collapsed against {system} on CPU"
    # overhead-bound gaps shrink on CPU relative to GPU
    assert summary["PyTorch"]["mean"] > 1.2
