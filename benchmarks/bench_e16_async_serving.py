"""E16 — async serving: background compilation vs synchronous stalls.

The E14 shape-diverse trace replayed through the *runtime*
(``repro.serving``) under a virtual clock: synchronous per-signature
compilation stalls the server behind every cold signature, background
compilation answers cold requests on the eager fallback while the
pool produces launch plans.  Claims: async-compile p99 strictly below
synchronous-compile p99, and injected compile faults (transient retries
+ permanent quarantines) never surface an error to a request.

Runnable directly as a perf-smoke gate (used by CI)::

    python benchmarks/bench_e16_async_serving.py --quick

A ``--quick`` run saves ``e16_async_serving.quick.{json,txt}``, so it never
overwrites the full run's artifact.
"""

import sys

import pytest

from repro.bench import (e16_async_serving, format_async_serving,
                         print_and_save)

#: CI gate: async p99 must beat sync p99 by at least this factor (the
#: acceptance bar is "strictly below"; the margin keeps the gate
#: meaningful rather than winning by rounding).
REQUIRED_P99_IMPROVEMENT = 1.5

#: --quick (CI smoke): fewer queries, same structure.
QUICK_QUERIES = 60


def _modes(result):
    return {row["mode"]: row for row in result["rows"]}


@pytest.fixture(scope="module")
def experiment():
    result = e16_async_serving("A10")
    print_and_save("e16_async_serving", result,
                   format_async_serving(result))
    return result


def test_async_p99_beats_sync(experiment):
    modes = _modes(experiment)
    sync_p99 = modes["sync compile"]["p99_us"]
    async_p99 = modes["async + fallback"]["p99_us"]
    assert async_p99 < sync_p99, \
        "background compilation did not improve tail latency"
    assert experiment["p99_improvement"] >= REQUIRED_P99_IMPROVEMENT


def test_no_request_ever_sees_an_error(experiment):
    for row in experiment["rows"]:
        assert row["errors"] == 0, \
            f"{row['mode']}: {row['errors']} non-OK responses"


def test_faults_degrade_latency_not_correctness(experiment):
    modes = _modes(experiment)
    faulted = modes["async + faults"]
    assert faulted["quarantined"] > 0, \
        "fault schedule never quarantined a signature"
    assert faulted["p99_us"] < modes["sync compile"]["p99_us"], \
        "even a fault-ridden async runtime must beat sync stalls"


def test_async_mode_actually_exercises_both_paths(experiment):
    modes = _modes(experiment)
    row = modes["async + fallback"]
    assert row["fallback"] > 0, "no cold request hit the fallback"
    assert row["fast"] > 0, "no request ever reached the warm path"
    assert row["compile_stalls"] == 0, "async mode must never stall"


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="E16 async-serving perf smoke",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_QUERIES}-query trace; what CI runs")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless async p99 beats sync p99 by "
                             f">= {REQUIRED_P99_IMPROVEMENT}x with zero "
                             "errors (implied by --quick)")
    parser.add_argument("--device", default="A10")
    args = parser.parse_args(argv)

    if args.quick:
        result = e16_async_serving(args.device,
                                   num_queries=QUICK_QUERIES)
    else:
        result = e16_async_serving(args.device)
    name = "e16_async_serving" + (".quick" if args.quick else "")
    print_and_save(name, result, format_async_serving(result))

    if args.quick or args.check:
        errors = sum(row["errors"] for row in result["rows"])
        if errors:
            print(f"FAIL: {errors} requests saw a non-OK response")
            return 1
        improvement = result["p99_improvement"]
        if improvement < REQUIRED_P99_IMPROVEMENT:
            print(f"FAIL: async p99 only {improvement:.2f}x below sync "
                  f"(need >= {REQUIRED_P99_IMPROVEMENT}x)")
            return 1
        # Each mode serves through a traced ServingEngine on the virtual
        # clock; the JSON artifact must carry per-mode span breakdowns
        # that saw every request.
        for row in result["rows"]:
            breakdown = row.get("span_breakdown", {})
            requests = breakdown.get("request", {}).get("count", 0)
            if requests != result["num_queries"]:
                print(f"FAIL: {row['mode']}: span_breakdown saw "
                      f"{requests} request spans, expected "
                      f"{result['num_queries']}")
                return 1
        print(f"OK: async p99 {improvement:.2f}x below sync, 0 errors "
              f"(gate {REQUIRED_P99_IMPROVEMENT}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
