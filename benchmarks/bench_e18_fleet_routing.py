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
                         print_and_save)

#: CI gate: round-robin p99 must exceed affinity p99 by at least this
#: factor at the gate replica count (the acceptance bar from the issue).
REQUIRED_P99_RATIO = 1.5

#: --quick (CI smoke): fewer queries, same structure.  240 keeps the
#: signature working set (~110 distinct) well above one replica's plan
#: capacity — below that the whole trace fits every cache and the
#: policies converge.
QUICK_QUERIES = 240


def _row(result, policy, replicas):
    return next(r for r in result["rows"]
                if r["policy"] == policy and r["replicas"] == replicas)


@pytest.fixture(scope="module")
def experiment():
    result = e18_fleet_routing("A10")
    print_and_save("e18_fleet_routing", result,
                   format_fleet_routing(result))
    return result


def test_affinity_beats_round_robin_at_the_gate(experiment):
    gate = experiment["gate_replicas"]
    affinity = _row(experiment, "affinity", gate)
    round_robin = _row(experiment, "round_robin", gate)
    assert affinity["p99_us"] < round_robin["p99_us"], \
        "signature affinity did not improve tail latency"
    assert experiment["p99_ratio_at_gate"] >= REQUIRED_P99_RATIO


def test_every_response_is_bit_identical_and_ok(experiment):
    assert experiment["errors"] == 0, \
        f"{experiment['errors']} non-OK responses across the sweep"
    assert experiment["mismatches"] == 0, \
        "a routed response diverged from the direct engine run"


def test_round_robin_thrashes_the_plan_cache(experiment):
    gate = experiment["gate_replicas"]
    affinity = _row(experiment, "affinity", gate)
    round_robin = _row(experiment, "round_robin", gate)
    assert round_robin["recompiles"] > affinity["recompiles"], \
        "signature-blind placement should churn the bounded LRU"
    assert round_robin["fallback"] > affinity["fallback"], \
        "cache thrash should push round-robin onto the eager fallback"


def test_affinity_actually_pins_signatures(experiment):
    gate = experiment["gate_replicas"]
    affinity = _row(experiment, "affinity", gate)
    assert affinity["affinity_hits"] > 0, "no repeat ever hit its home"
    assert affinity["affinity_spills"] == 0, \
        "spill is disabled in this sweep; a spill means the policy leaked"


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="E18 fleet-routing perf smoke",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_QUERIES}-query trace at the gate "
                             "replica count only; what CI runs")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless affinity p99 beats round-"
                             f"robin by >= {REQUIRED_P99_RATIO}x at the "
                             "gate with zero errors/mismatches (implied "
                             "by --quick)")
    parser.add_argument("--device", default="A10")
    args = parser.parse_args(argv)

    if args.quick:
        result = e18_fleet_routing(args.device,
                                   num_queries=QUICK_QUERIES,
                                   replica_counts=(4,))
    else:
        result = e18_fleet_routing(args.device)
    name = "e18_fleet_routing" + (".quick" if args.quick else "")
    print_and_save(name, result, format_fleet_routing(result))

    if args.quick or args.check:
        if result["errors"]:
            print(f"FAIL: {result['errors']} non-OK responses")
            return 1
        if result["mismatches"]:
            print(f"FAIL: {result['mismatches']} responses diverged "
                  "from the direct engine run")
            return 1
        ratio = result["p99_ratio_at_gate"]
        if ratio < REQUIRED_P99_RATIO:
            print(f"FAIL: affinity p99 only {ratio:.2f}x below round-"
                  f"robin (need >= {REQUIRED_P99_RATIO}x)")
            return 1
        print(f"OK: affinity p99 {ratio:.2f}x below round-robin at "
              f"{result['gate_replicas']} replicas, 0 errors, "
              f"0 mismatches (gate {REQUIRED_P99_RATIO}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
