"""Execution statistics shared by every executor.

:class:`RunStats` is what one inference call reports; :class:`Timeline`
accumulates stats across a trace of calls (the serving simulations in the
benchmarks).  Compilation events are recorded separately from steady-state
run time so experiments can report both amortised and excluded-compile
numbers, the way the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RunStats", "Timeline"]


@dataclass
class RunStats:
    """What one executor invocation cost (simulated)."""

    device_time_us: float = 0.0
    host_time_us: float = 0.0
    compile_time_us: float = 0.0  # compilation triggered by this call
    kernels_launched: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    flops: float = 0.0
    cache_hit: bool = True
    padding_waste_bytes: int = 0
    details: dict = field(default_factory=dict)

    @property
    def total_time_us(self) -> float:
        """End-to-end latency of the call, including any compile stall."""
        return self.device_time_us + self.host_time_us + self.compile_time_us

    @property
    def steady_time_us(self) -> float:
        """Latency excluding one-time compilation."""
        return self.device_time_us + self.host_time_us

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


@dataclass
class Timeline:
    """Aggregated stats across a trace of calls."""

    calls: int = 0
    total_us: float = 0.0
    steady_us: float = 0.0
    compile_us: float = 0.0
    compile_events: int = 0
    kernels: int = 0
    bytes: int = 0
    per_call_us: list = field(default_factory=list)

    def record(self, stats: RunStats) -> None:
        self.calls += 1
        self.total_us += stats.total_time_us
        self.steady_us += stats.steady_time_us
        self.compile_us += stats.compile_time_us
        if stats.compile_time_us > 0:
            self.compile_events += 1
        self.kernels += stats.kernels_launched
        self.bytes += stats.bytes_total
        self.per_call_us.append(stats.total_time_us)

    @property
    def mean_total_us(self) -> float:
        return self.total_us / self.calls if self.calls else 0.0

    @property
    def mean_steady_us(self) -> float:
        return self.steady_us / self.calls if self.calls else 0.0

    def percentile_us(self, q: float) -> float:
        if not self.per_call_us:
            return 0.0
        ordered = sorted(self.per_call_us)
        index = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[index]
