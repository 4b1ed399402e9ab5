"""E6 — compilation overhead table.

One-time compilation cost per zoo model: pipeline wall time of this
implementation, the simulated JIT-grade compile cost charged in serving
experiments, kernel counts, and the symbolic-analysis share.  The paper's
point: BladeDISC pays this once per *model*, not per shape.

That point only holds if compile time stays linear in graph depth, so
the table also sweeps bert over 4, 12 and 24 layers and reports µs per
node (best of 3 compiles).  The perf-smoke gate pins it: µs/node at the
deepest depth may be at most ``MAX_DEPTH_RATIO`` times that at the
shallowest.

Runnable directly as a perf-smoke gate (used by CI)::

    python benchmarks/bench_e6_compile_overhead.py --quick

A ``--quick`` run compiles only bert besides the sweep and saves
``e6_compile_overhead.quick.{json,txt}``, so it never overwrites the full
run's artifact.
"""

import sys

import pytest

from repro.bench import e6_compile_overhead, format_compile_overhead, \
    print_and_save
from repro.core import DiscCompiler

#: CI gate: best-of-3 µs/node at the deepest bert over the shallowest.
MAX_DEPTH_RATIO = 1.6


@pytest.fixture(scope="module")
def experiment():
    result = e6_compile_overhead()
    print_and_save("e6_compile_overhead", result,
                   format_compile_overhead(result))
    return result


def depth_ratio(result: dict) -> float:
    """µs/node at the deepest swept bert over that at the shallowest."""
    rows = sorted(result["depth"], key=lambda r: r["layers"])
    return rows[-1]["us_per_node"] / rows[0]["us_per_node"]


def test_bench_e6_compile_bert(benchmark, experiment, bert_model):
    compiler = DiscCompiler()
    benchmark(compiler.compile, bert_model.graph)
    for row in experiment["rows"]:
        assert row["kernels"] > 0
        assert row["pipeline_wall_s"] < 60
        # the symbolic analysis is a trivial share of compilation
        assert row["analysis_ms"] / 1e3 < row["pipeline_wall_s"]


def test_bench_e6_compile_time_is_near_linear_in_depth(experiment):
    assert depth_ratio(experiment) <= MAX_DEPTH_RATIO


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="E6 compile-overhead perf smoke")
    parser.add_argument("--quick", action="store_true",
                        help="bert only besides the depth sweep, with the "
                             "depth gate enforced")
    args = parser.parse_args(argv)

    result = e6_compile_overhead(models=["bert"] if args.quick else None)
    name = "e6_compile_overhead" + (".quick" if args.quick else "")
    print_and_save(name, result, format_compile_overhead(result))

    if args.quick:
        ratio = depth_ratio(result)
        rows = sorted(result["depth"], key=lambda r: r["layers"])
        verdict = "OK" if ratio <= MAX_DEPTH_RATIO else "FAIL"
        print(f"{verdict}: bert compile {rows[-1]['us_per_node']:.0f} "
              f"us/node at {rows[-1]['layers']} layers is {ratio:.2f}x "
              f"the {rows[0]['us_per_node']:.0f} us/node at "
              f"{rows[0]['layers']} (gate {MAX_DEPTH_RATIO}x)")
        return 0 if verdict == "OK" else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
