"""E17 — dynamic batching: the throughput/latency frontier.

Single-sequence bert traffic (bimodal sequence lengths) replayed through
an unbatched ``ServingEngine`` and a ``BatchingServingEngine`` across a
Poisson arrival-rate sweep on the virtual clock.  The batcher buckets
requests by constraint-store-compatible signatures, pads only within a
bucket, and lowers each bucket to a single batched launch-plan replay.
Claims: at the 2 000 qps gate rate the batched engine serves at least
twice the unbatched throughput, with a p99 still inside 1.5x the
checked-in E16 async-serving baseline.

Runnable directly as a perf-smoke gate (used by CI)::

    python benchmarks/bench_e17_dynamic_batching.py --quick

A ``--quick`` run saves ``e17_dynamic_batching.quick.{json,txt}``, so it never
overwrites the full run's artifact.
"""

import sys

import pytest

from repro.bench import (e17_dynamic_batching, format_dynamic_batching,
                         gate_main, print_and_save)

#: CI gate: batched throughput at the gate rate must be at least this
#: multiple of the unbatched throughput at the same offered load.
REQUIRED_THROUGHPUT_GAIN = 2.0

#: CI gate: batched p99 at the gate rate must stay within this factor
#: of the E16 async-serving baseline p99.
E16_P99_HEADROOM = 1.5

#: The E16 baseline the p99 gate was set against: the "async + fallback"
#: p99 of E16's 60-query ``--quick`` run.  Pinned rather than read from
#: ``results/e16_async_serving.json``, which holds the full 150-query run
#: (p99 187,881 us, deeper into the compile backlog) and would loosen
#: the bound about 2.1x.
E16_ASYNC_P99_US = 89_802.0

#: --quick (CI smoke): fewer queries and rates, same structure.
QUICK_QUERIES = 120
QUICK_RATES = [600.0, 2_000.0, 10_000.0]


def failures(result) -> list:
    """Every claim the experiment misses, as human-readable lines."""
    rows = {(r["mode"], r["rate_qps"]): r for r in result["rows"]}
    gate = result["gate_rate_qps"]
    found = []
    gain = result["throughput_gain_at_gate"]
    if gain < REQUIRED_THROUGHPUT_GAIN:
        found.append(f"batched throughput only {gain:.2f}x unbatched at "
                     f"{gate:.0f} qps (need >= {REQUIRED_THROUGHPUT_GAIN}x)")
    p99 = rows[("batched", gate)]["p99_us"]
    bound = E16_P99_HEADROOM * E16_ASYNC_P99_US
    if p99 > bound:
        found.append(f"batched p99 {p99:.0f}us exceeds {bound:.0f}us "
                     f"({E16_P99_HEADROOM}x the E16 async baseline)")
    # At every rate the batcher drains the queue at least as fast, so
    # it can never shed *more* than the unbatched engine.
    for rate in result["rates_qps"]:
        if rows[("batched", rate)]["shed"] > rows[("unbatched", rate)][
                "shed"]:
            found.append(f"batching shed more requests at {rate:.0f} qps")
    top = rows[("batched", max(result["rates_qps"]))]
    if top["batches"] <= 0:
        found.append("no batch ever formed")
    if top["batched_served"] <= 0:
        found.append("no request took the batched path")
    if top["mean_batch"] < result["max_batch_size"] / 2:
        found.append("saturating load should fill batches at least "
                     "halfway")
    # pow2 ceilings bound per-class padding below 2x, i.e. waste < 0.5,
    # and the bimodal trace should sit well under the worst case.
    for row in result["rows"]:
        waste = row["mean_padding_waste"]
        if waste is not None and waste >= 0.5:
            found.append(f"{row['mode']} at {row['rate_qps']:.0f} qps: "
                         f"padding waste {waste:.2f} >= 0.5")
    return found


@pytest.fixture(scope="module")
def experiment():
    result = e17_dynamic_batching()
    print_and_save("e17_dynamic_batching", result,
                   format_dynamic_batching(result))
    return result


def test_e17_meets_every_gate(experiment):
    assert failures(experiment) == []


if __name__ == "__main__":
    sys.exit(gate_main("e17_dynamic_batching", e17_dynamic_batching,
                       format_dynamic_batching, failures,
                       quick={"num_queries": QUICK_QUERIES,
                              "rates_qps": QUICK_RATES}))
