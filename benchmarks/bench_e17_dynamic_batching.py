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
                         print_and_save)

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

def _row(result, mode, rate):
    return next(r for r in result["rows"]
                if r["mode"] == mode and r["rate_qps"] == rate)


@pytest.fixture(scope="module")
def experiment():
    result = e17_dynamic_batching("A10")
    print_and_save("e17_dynamic_batching", result,
                   format_dynamic_batching(result))
    return result


def test_batched_throughput_at_least_doubles(experiment):
    assert experiment["throughput_gain_at_gate"] >= \
        REQUIRED_THROUGHPUT_GAIN, \
        (f"batched throughput only "
         f"{experiment['throughput_gain_at_gate']}x unbatched at "
         f"{experiment['gate_rate_qps']:.0f} qps")


def test_batched_p99_within_e16_async_baseline(experiment):
    gate = experiment["gate_rate_qps"]
    p99 = _row(experiment, "batched", gate)["p99_us"]
    bound = E16_P99_HEADROOM * E16_ASYNC_P99_US
    assert p99 <= bound, \
        f"batched p99 {p99:.0f}us exceeds {bound:.0f}us " \
        f"({E16_P99_HEADROOM}x the E16 async baseline)"


def test_batching_sheds_no_request_the_solo_engine_keeps(experiment):
    # At every rate the batcher drains the queue at least as fast, so
    # it can never shed *more* than the unbatched engine.
    for rate in experiment["rates_qps"]:
        batched = _row(experiment, "batched", rate)
        unbatched = _row(experiment, "unbatched", rate)
        assert batched["shed"] <= unbatched["shed"], \
            f"batching shed more requests at {rate:.0f} qps"


def test_batches_actually_form_and_fill_under_load(experiment):
    top_rate = max(experiment["rates_qps"])
    row = _row(experiment, "batched", top_rate)
    assert row["batches"] > 0, "no batch ever formed"
    assert row["batched_served"] > 0, "no request took the batched path"
    assert row["mean_batch"] >= experiment["max_batch_size"] / 2, \
        "saturating load should fill batches at least halfway"


def test_padding_waste_stays_below_pow2_bound(experiment):
    # pow2 ceilings bound per-class padding below 2x, i.e. waste < 0.5,
    # and the bimodal trace should sit well under the worst case.
    for row in experiment["rows"]:
        if row["mean_padding_waste"] is not None:
            assert row["mean_padding_waste"] < 0.5


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="E17 dynamic-batching perf smoke",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_QUERIES}-query trace at "
                             f"{len(QUICK_RATES)} rates; what CI runs")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless batched throughput is >= "
                             f"{REQUIRED_THROUGHPUT_GAIN}x unbatched at "
                             "the gate rate with p99 inside "
                             f"{E16_P99_HEADROOM}x the E16 baseline "
                             "(implied by --quick)")
    parser.add_argument("--device", default="A10")
    args = parser.parse_args(argv)

    if args.quick:
        result = e17_dynamic_batching(args.device,
                                      num_queries=QUICK_QUERIES,
                                      rates_qps=QUICK_RATES)
    else:
        result = e17_dynamic_batching(args.device)
    name = "e17_dynamic_batching" + (".quick" if args.quick else "")
    print_and_save(name, result, format_dynamic_batching(result))

    if args.quick or args.check:
        gain = result["throughput_gain_at_gate"]
        if gain < REQUIRED_THROUGHPUT_GAIN:
            print(f"FAIL: batched throughput only {gain:.2f}x unbatched "
                  f"at {result['gate_rate_qps']:.0f} qps "
                  f"(need >= {REQUIRED_THROUGHPUT_GAIN}x)")
            return 1
        p99 = _row(result, "batched", result["gate_rate_qps"])["p99_us"]
        bound = E16_P99_HEADROOM * E16_ASYNC_P99_US
        if p99 > bound:
            print(f"FAIL: batched p99 {p99:.0f}us exceeds {bound:.0f}us "
                  f"({E16_P99_HEADROOM}x the E16 async baseline)")
            return 1
        print(f"OK: {gain:.2f}x throughput at "
              f"{result['gate_rate_qps']:.0f} qps, batched p99 "
              f"{p99:.0f}us inside the E16 bound {bound:.0f}us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
