"""Online-serving simulation: tail latency under load.

The end-to-end tables average per-query cost, but what a production
deployment feels is *queueing*: requests arrive on their own schedule, and
a compilation stall does not just slow one request — it blocks everything
behind it.  This module replays a trace through an executor as a Poisson
arrival process into a single-server FIFO queue and reports the latency
distribution, which is where per-shape JITs and autotuned engines fall
apart and a compile-once system stays flat.

Service times are the executor's simulated ``total_time_us`` (compile
stalls included), so a recompiling system serialises its JIT behind the
queue exactly as a real synchronous compile would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ServingResult", "simulate_serving"]


@dataclass
class ServingResult:
    """Latency distribution of one simulated serving run."""

    latencies_us: list = field(default_factory=list)
    service_us: list = field(default_factory=list)
    duration_us: float = 0.0
    compile_stalls: int = 0

    def percentile(self, q: float) -> float:
        if not self.latencies_us:
            return 0.0
        return float(np.percentile(self.latencies_us, q))

    @property
    def p50_us(self) -> float:
        return self.percentile(50)

    @property
    def p95_us(self) -> float:
        return self.percentile(95)

    @property
    def p99_us(self) -> float:
        return self.percentile(99)

    @property
    def max_us(self) -> float:
        return float(max(self.latencies_us)) if self.latencies_us else 0.0

    @property
    def throughput_qps(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return len(self.latencies_us) / (self.duration_us / 1e6)

    @property
    def utilization(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return min(1.0, sum(self.service_us) / self.duration_us)

    def summary(self) -> dict:
        return {
            "queries": len(self.latencies_us),
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "max_us": self.max_us,
            "throughput_qps": self.throughput_qps,
            "utilization": self.utilization,
            "compile_stalls": self.compile_stalls,
        }


def simulate_serving(executor, trace, arrival_rate_qps: float,
                     seed: int = 0) -> ServingResult:
    """Replay ``trace`` through ``executor`` under Poisson arrivals.

    ``executor`` is anything with ``run(inputs) -> (outputs, RunStats)``
    (a baseline, a DiscExecutor, or an ExecutionEngine).  The executor's
    internal caches warm up across the run, exactly as in production.
    """
    if arrival_rate_qps <= 0:
        raise ValueError("arrival rate must be positive")
    rng = np.random.default_rng(seed)
    mean_gap_us = 1e6 / arrival_rate_qps

    result = ServingResult()
    arrival_us = 0.0
    server_free_us = 0.0
    for inputs in trace:
        arrival_us += float(rng.exponential(mean_gap_us))
        __, stats = executor.run(inputs)
        service = stats.total_time_us
        if stats.compile_time_us > 0:
            result.compile_stalls += 1
        start = max(arrival_us, server_free_us)
        finish = start + service
        server_free_us = finish
        result.latencies_us.append(finish - arrival_us)
        result.service_us.append(service)
        result.duration_us = finish
    return result
