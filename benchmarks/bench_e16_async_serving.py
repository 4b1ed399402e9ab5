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
                         gate_main, print_and_save)

#: CI gate: async p99 must beat sync p99 by at least this factor (the
#: acceptance bar is "strictly below"; the margin keeps the gate
#: meaningful rather than winning by rounding).
REQUIRED_P99_IMPROVEMENT = 1.5

#: --quick (CI smoke): fewer queries, same structure.
QUICK_QUERIES = 60


def failures(result) -> list:
    """Every claim the experiment misses, as human-readable lines."""
    found = []
    modes = {row["mode"]: row for row in result["rows"]}
    sync = modes["sync compile"]
    served = modes["async + fallback"]
    faulted = modes["async + faults"]
    if served["p99_us"] >= sync["p99_us"]:
        found.append("background compilation did not improve tail "
                     "latency")
    improvement = result["p99_improvement"]
    if improvement < REQUIRED_P99_IMPROVEMENT:
        found.append(f"async p99 only {improvement:.2f}x below sync "
                     f"(need >= {REQUIRED_P99_IMPROVEMENT}x)")
    for row in result["rows"]:
        if row["errors"] != 0:
            found.append(f"{row['mode']}: {row['errors']} non-OK "
                         f"responses")
        # Each mode serves through a traced ServingEngine on the
        # virtual clock; its span breakdown must see every request.
        requests = row.get("span_breakdown", {}).get(
            "request", {}).get("count", 0)
        if requests != result["num_queries"]:
            found.append(f"{row['mode']}: span_breakdown saw {requests} "
                         f"request spans, expected "
                         f"{result['num_queries']}")
    if faulted["quarantined"] <= 0:
        found.append("fault schedule never quarantined a signature")
    if faulted["p99_us"] >= sync["p99_us"]:
        found.append("even a fault-ridden async runtime must beat sync "
                     "stalls")
    if served["fallback"] <= 0:
        found.append("no cold request hit the fallback")
    if served["fast"] <= 0:
        found.append("no request ever reached the warm path")
    if served["compile_stalls"] != 0:
        found.append(f"async mode stalled {served['compile_stalls']} "
                     f"times on a compile")
    return found


@pytest.fixture(scope="module")
def experiment():
    result = e16_async_serving()
    print_and_save("e16_async_serving", result,
                   format_async_serving(result))
    return result


def test_e16_meets_every_gate(experiment):
    assert failures(experiment) == []


if __name__ == "__main__":
    sys.exit(gate_main("e16_async_serving", e16_async_serving,
                       format_async_serving, failures,
                       quick={"num_queries": QUICK_QUERIES}))
