"""Deterministic discrete-event scheduler for the serving runtime.

The serving engine never spawns threads: request arrival, service
completion, compile-worker completion, retry backoff and deadline expiry
are all *events* on one priority queue, dispatched in timestamp order
against a :class:`~repro.serving.clock.VirtualClock`.  Concurrency in
the runtime is therefore interleaving of events, and the scheduler makes
that interleaving both deterministic and *explorable*:

- events at distinct timestamps always run in time order;
- events that share a timestamp run in an order chosen by a seeded RNG
  (the "interleaving seed") — same seed, same order, every run; distinct
  seeds permute the simultaneous events, which is how the test suite
  exercises many interleavings without threads or sleeps.

Handles returned by ``call_at``/``call_after`` are cancellable, which
the engine uses to disarm deadline timers when a request completes.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from .clock import VirtualClock

__all__ = ["EventHandle", "VirtualScheduler"]


class EventHandle:
    """A scheduled callback; ``cancel()`` disarms it in O(1)."""

    __slots__ = ("time_us", "fn", "cancelled")

    def __init__(self, time_us: float, fn: Callable[[], None]) -> None:
        self.time_us = time_us
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class VirtualScheduler:
    """Single-threaded event loop over virtual time.

    ``seed`` controls the dispatch order of simultaneous events; with
    ``seed=None`` ties break by submission order (FIFO), which is itself
    deterministic.
    """

    def __init__(self, seed: int | None = None,
                 clock: VirtualClock | None = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.seed = seed
        self._rng = random.Random(seed) if seed is not None else None
        #: heap of (time_us, tiebreak, seq, handle); seq keeps the sort
        #: total even when the seeded tiebreaks collide.
        self._heap: list[tuple[float, float, int, EventHandle]] = []
        self._seq = 0
        self.events_dispatched = 0

    def now_us(self) -> float:
        return self.clock.now_us()

    # -- scheduling --------------------------------------------------------

    def call_at(self, time_us: float,
                fn: Callable[[], None]) -> EventHandle:
        """Run ``fn`` when virtual time reaches ``time_us``.

        Past timestamps clamp to *now* (the event still runs, after any
        already-queued events for the current instant have their say).
        """
        time_us = max(float(time_us), self.clock.now_us())
        handle = EventHandle(time_us, fn)
        tiebreak = self._rng.random() if self._rng is not None else 0.0
        heapq.heappush(self._heap, (time_us, tiebreak, self._seq, handle))
        self._seq += 1
        return handle

    def call_after(self, delay_us: float,
                   fn: Callable[[], None]) -> EventHandle:
        return self.call_at(self.clock.now_us() + max(0.0, delay_us), fn)

    # -- dispatch ----------------------------------------------------------

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Dispatch events until the queue drains; returns the count.

        ``max_events`` is a runaway guard — a handler re-arming itself
        unconditionally raises instead of spinning forever.
        """
        dispatched = 0
        while self._heap:
            if dispatched >= max_events:
                raise RuntimeError(
                    f"scheduler did not go idle within {max_events} events")
            time_us, _, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.clock.advance_to(time_us)
            dispatched += 1
            self.events_dispatched += 1
            handle.fn()
        return dispatched

    def run_until(self, time_us: float) -> int:
        """Dispatch events up to and including ``time_us``, then stop.

        Virtual time ends at ``time_us`` even if the queue drained
        earlier; later events stay queued for a subsequent run.
        """
        dispatched = 0
        while self._heap and self._heap[0][0] <= time_us:
            _, _, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.clock.advance_to(handle.time_us)
            dispatched += 1
            self.events_dispatched += 1
            handle.fn()
        self.clock.advance_to(time_us)
        return dispatched
