"""Run statistics and timelines."""

import pytest

from repro.device import RunStats, Timeline


def test_total_vs_steady():
    stats = RunStats(device_time_us=10, host_time_us=2,
                     compile_time_us=100)
    assert stats.total_time_us == 112
    assert stats.steady_time_us == 12


def test_timeline_aggregation():
    t = Timeline()
    t.record(RunStats(device_time_us=10, compile_time_us=1000,
                      kernels_launched=4))
    t.record(RunStats(device_time_us=20, kernels_launched=6))
    assert t.calls == 2
    assert t.compile_events == 1
    assert t.kernels == 10
    assert t.mean_steady_us == pytest.approx(15)
    assert t.mean_total_us == pytest.approx((1010 + 20) / 2)


def test_percentiles():
    t = Timeline()
    for us in (1, 2, 3, 4, 100):
        t.record(RunStats(device_time_us=us))
    assert t.percentile_us(0) == 1
    assert t.percentile_us(50) <= 4
    assert t.percentile_us(99) == 100
    assert Timeline().percentile_us(50) == 0.0
