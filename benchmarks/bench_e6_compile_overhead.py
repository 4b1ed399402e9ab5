"""E6 — compilation overhead table.

One-time compilation cost per zoo model: pipeline wall time of this
implementation, the simulated JIT-grade compile cost charged in serving
experiments, kernel counts, and the symbolic-analysis share.  The paper's
point: BladeDISC pays this once per *model*, not per shape.

That point only holds if compile time stays linear in graph depth, so
the table also sweeps bert over 4, 12 and 24 layers and reports µs per
node (best of 5 rounds, each compiling every depth once).  The
perf-smoke gate pins it: µs/node at the deepest depth may be at most
``MAX_DEPTH_RATIO`` times that at the shallowest.

Runnable directly as a perf-smoke gate (used by CI)::

    python benchmarks/bench_e6_compile_overhead.py --quick

A ``--quick`` run compiles only bert besides the sweep and saves
``e6_compile_overhead.quick.{json,txt}``, so it never overwrites the full
run's artifact.
"""

import sys

import pytest

from repro.bench import e6_compile_overhead, format_compile_overhead, \
    gate_main, print_and_save
from repro.core import DiscCompiler

#: CI gate: best-of-5 µs/node at the deepest bert over the shallowest.
MAX_DEPTH_RATIO = 1.6


def failures(result) -> list:
    """Every claim the experiment misses, as human-readable lines."""
    found = []
    for row in result["rows"]:
        model, wall = row["model"], row["pipeline_wall_s"]
        if row["kernels"] <= 0:
            found.append(f"{model}: compiled to no kernels")
        if wall >= 60:
            found.append(f"{model}: compile took {wall:.1f} s (limit 60 s)")
        # the symbolic analysis is a trivial share of compilation
        if row["analysis_ms"] / 1e3 >= wall:
            found.append(f"{model}: symbolic analysis "
                         f"{row['analysis_ms']:.1f} ms is not below the "
                         f"{wall:.3f} s pipeline")
    depth = sorted(result["depth"], key=lambda r: r["layers"])
    ratio = depth[-1]["us_per_node"] / depth[0]["us_per_node"]
    if ratio > MAX_DEPTH_RATIO:
        found.append(f"bert compile {depth[-1]['us_per_node']:.0f} us/node "
                     f"at {depth[-1]['layers']} layers is {ratio:.2f}x the "
                     f"{depth[0]['us_per_node']:.0f} us/node at "
                     f"{depth[0]['layers']} (gate {MAX_DEPTH_RATIO}x)")
    return found


@pytest.fixture(scope="module")
def experiment():
    result = e6_compile_overhead()
    print_and_save("e6_compile_overhead", result,
                   format_compile_overhead(result))
    return result


def test_bench_e6_compile_bert(benchmark, experiment, bert_model):
    compiler = DiscCompiler()
    benchmark(compiler.compile, bert_model.graph)
    assert failures(experiment) == []


if __name__ == "__main__":
    sys.exit(gate_main("e6_compile_overhead", e6_compile_overhead,
                       format_compile_overhead, failures,
                       quick={"models": ["bert"]}))
