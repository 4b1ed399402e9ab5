"""E18 — fleet routing: signature affinity vs signature-blind placement.

A shape-diverse zipf trace replayed through a multi-replica
``FleetEngine`` under a virtual clock, once per routing policy, across
a replica sweep.  Every replica runs a bounded launch-plan LRU; the
trace's signature working set exceeds one replica's capacity.  Claims:
rendezvous-hash affinity partitions the signature space so each
replica's share fits its plan cache (stable fast-path service), while
signature-blind round-robin thrashes every cache into perpetual
eviction, background recompiles and eager-fallback service — at the
4-replica gate point its p99 must be at least 1.5x above affinity's —
and no policy, replica count or cache state may ever change an output:
every OK response is bit-identical to a direct engine run.

Runnable directly as a perf-smoke gate (used by CI)::

    python benchmarks/bench_e18_fleet_routing.py --quick

A ``--quick`` run saves ``e18_fleet_routing.quick.{json,txt}``, so it never
overwrites the full run's artifact.
"""

import sys

import pytest

from repro.bench import (e18_fleet_routing, format_fleet_routing,
                         gate_main, print_and_save)

#: CI gate: round-robin p99 must exceed affinity p99 by at least this
#: factor at the gate replica count (the acceptance bar from the issue).
REQUIRED_P99_RATIO = 1.5

#: --quick (CI smoke): fewer queries, same structure.  240 keeps the
#: signature working set (~110 distinct) well above one replica's plan
#: capacity — below that the whole trace fits every cache and the
#: policies converge.
QUICK_QUERIES = 240


def failures(result) -> list:
    """Every claim the experiment misses, as human-readable lines."""
    gate = {row["policy"]: row for row in result["rows"]
            if row["replicas"] == result["gate_replicas"]}
    affinity, round_robin = gate["affinity"], gate["round_robin"]
    found = []
    if result["errors"]:
        found.append(f"{result['errors']} non-OK responses across the "
                     f"sweep")
    if result["mismatches"]:
        found.append(f"{result['mismatches']} routed responses diverged "
                     f"from the direct engine run")
    if affinity["p99_us"] >= round_robin["p99_us"]:
        found.append("signature affinity did not improve tail latency")
    ratio = result["p99_ratio_at_gate"]
    if ratio < REQUIRED_P99_RATIO:
        found.append(f"affinity p99 only {ratio:.2f}x below round-robin "
                     f"(need >= {REQUIRED_P99_RATIO}x)")
    if round_robin["recompiles"] <= affinity["recompiles"]:
        found.append("signature-blind placement should churn the "
                     "bounded LRU")
    if round_robin["fallback"] <= affinity["fallback"]:
        found.append("cache thrash should push round-robin onto the "
                     "eager fallback")
    if affinity["affinity_hits"] <= 0:
        found.append("no repeat ever hit its home")
    if affinity["affinity_spills"] != 0:
        found.append("spill is disabled in this sweep; a spill means the "
                     "policy leaked")
    return found


@pytest.fixture(scope="module")
def experiment():
    result = e18_fleet_routing()
    print_and_save("e18_fleet_routing", result,
                   format_fleet_routing(result))
    return result


def test_e18_meets_every_gate(experiment):
    assert failures(experiment) == []


if __name__ == "__main__":
    sys.exit(gate_main("e18_fleet_routing", e18_fleet_routing,
                       format_fleet_routing, failures,
                       quick={"num_queries": QUICK_QUERIES,
                              "replica_counts": (4,)}))
