"""Background job pool with dedup, retry and quarantine.

Under compile-once (``ServingOptions.compile_cost=None``, DISC's path) a
cold ``(model, signature)`` never waits for the pool: its first run
freezes the shape-generic executable's plan inline, and the pool runs
only the schedule tuner's jobs, which upgrade that plan in place.  Under
the per-shape-JIT baseline (an explicit :class:`SignatureCompileCost`)
the first request of a cold key submits a compile job and is answered
on the eager fallback; when the job completes it installs the launch
plan into the engine's :class:`LaunchPlanCache` and later requests take
the fast path.  The pool provides the robustness half of either story,
and it is the only owner of a key's job state — every serving path asks
it whether a key compiles, retries or is quarantined:

- **dedup / in-flight coalescing** — one job per key, ever; concurrent
  requests for a signature already compiling are coalesced (counted,
  not resubmitted);
- **bounded workers** — ``workers`` simulated compile slots; a job waits
  for the earliest-free slot, so a burst of cold signatures serializes
  exactly as a real compile pool would;
- **retry with exponential backoff** — :class:`TransientCompileError`
  re-queues the job after ``backoff_us * multiplier**attempt``;
- **quarantine** — :class:`PermanentCompileError`, any other exception,
  or exhausting the retry budget, ends the key's jobs *forever*: the
  pool refuses further submissions for it and the engine stops trying.
  Under the per-shape JIT that pins the signature to the fallback path;
  under compile-once it only forgoes tuning.  Compile errors degrade
  service; they never surface to a request.

:meth:`BackgroundCompilePool.compile_now` applies the same retry and
quarantine rules inline, for the synchronous-compile baseline.

The pool runs entirely on the injected scheduler — job completion is a
scheduled event at ``start + duration`` — so its interleavings are as
deterministic as everything else in :mod:`repro.serving`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable

from ..obs.tracer import NULL_TRACER, ROOT, resolve_tracer
from ..runtime.launchplan import _key_label
from .scheduler import VirtualScheduler

__all__ = ["BackgroundCompilePool", "CompileState", "PermanentCompileError",
           "SignatureCompileCost", "TransientCompileError"]


class TransientCompileError(RuntimeError):
    """A compile failure worth retrying (flaky tooling, resource blips)."""


class PermanentCompileError(RuntimeError):
    """A compile failure retrying cannot fix (codegen rejects the case)."""


@dataclass
class SignatureCompileCost:
    """Simulated duration of one per-signature compile.

    Models a per-shape specializing JIT — a baseline, not DISC's path:
    a fixed front-end cost plus a per-kernel codegen cost.  The defaults
    land in the hundreds of milliseconds for the bench models — the
    scale at which the paper's compilation-stall problem actually bites.
    Passing one as ``ServingOptions.compile_cost`` selects that
    baseline; the default None compiles once.
    """

    fixed_us: float = 200_000.0
    per_kernel_us: float = 4_000.0

    def duration_us(self, num_kernels: int) -> float:
        return self.fixed_us + self.per_kernel_us * num_kernels


class CompileState(Enum):
    COLD = "cold"
    COMPILING = "compiling"
    READY = "ready"
    QUARANTINED = "quarantined"


@dataclass
class _Record:
    state: CompileState
    attempts: int = 0
    coalesced: int = 0
    finished_at_us: float | None = None


@dataclass
class PoolStats:
    jobs_submitted: int = 0
    jobs_coalesced: int = 0
    compiles_succeeded: int = 0
    transient_failures: int = 0
    permanent_failures: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class BackgroundCompilePool:
    """``workers`` simulated compile slots behind a dedup table.

    ``run`` callbacks receive the attempt index (0-based) and either
    return normally (the plan is installed by the callback itself) or
    raise: a :class:`TransientCompileError` retries, anything else
    quarantines.
    """

    def __init__(self, scheduler: VirtualScheduler, workers: int = 2,
                 max_retries: int = 2, backoff_us: float = 50_000.0,
                 backoff_multiplier: float = 2.0, tracer=None) -> None:
        if workers < 1:
            raise ValueError("compile pool needs at least one worker")
        self.scheduler = scheduler
        self.max_retries = max_retries
        self.backoff_us = backoff_us
        self.backoff_multiplier = backoff_multiplier
        #: ``compile:attempt`` spans and ``compile:*`` events (None = off).
        #: Attempt spans are forced to trace roots: they outlive the
        #: request span that happened to trigger them.
        self.tracer = resolve_tracer(tracer)
        #: per-worker timestamp at which the slot frees up.
        self._free_at_us = [0.0] * workers
        self._records: dict[Hashable, _Record] = {}
        self.stats = PoolStats()

    # -- queries -----------------------------------------------------------

    def state(self, key: Hashable) -> CompileState:
        record = self._records.get(key)
        return record.state if record is not None else CompileState.COLD

    def record(self, key: Hashable) -> _Record | None:
        return self._records.get(key)

    def quarantined_keys(self) -> set:
        """Every key whose jobs the pool has given up on."""
        return {key for key, record in self._records.items()
                if record.state is CompileState.QUARANTINED}

    # -- submission --------------------------------------------------------

    def ensure(self, key: Hashable, run: Callable[[int], None],
               duration_us: float) -> bool:
        """Make sure a compile for ``key`` is running or finished.

        Returns True if this call started a job; False if it coalesced
        onto an in-flight one, the key is already ready, or the key is
        quarantined.  A READY key whose plan was since evicted from the
        engine's LRU may be resubmitted — the record resets to COMPILING.
        """
        record = self._records.get(key)
        if record is not None:
            if record.state is CompileState.COMPILING:
                record.coalesced += 1
                self.stats.jobs_coalesced += 1
                if self.tracer.enabled:
                    self.tracer.event("compile:coalesced",
                                      key=_key_label(key))
                return False
            if record.state is CompileState.QUARANTINED:
                return False
            # READY here means the engine lost the plan (LRU eviction)
            # and wants it re-frozen: fall through and resubmit.
        self._records[key] = record = _Record(CompileState.COMPILING)
        self.stats.jobs_submitted += 1
        self._start_attempt(key, record, run, duration_us)
        return True

    def compile_now(self, key: Hashable, run: Callable[[int], None],
                    duration_us: float) -> float:
        """Compile ``key`` inline and return the stall it cost.

        The synchronous-compile baseline: every attempt stalls the
        caller ``duration_us`` — no worker slot, no backoff — under the
        same retry budget and failure rules as :meth:`ensure`, and ends
        with the key READY or QUARANTINED.  It records no spans or
        events; the caller's own span covers the stall.
        """
        self._records[key] = record = _Record(CompileState.COMPILING)
        self.stats.jobs_submitted += 1
        stall_us = 0.0
        retry = True
        while retry:
            stall_us += duration_us
            retry = self._attempt(key, record, run, None, NULL_TRACER)
        return stall_us

    # -- internals ---------------------------------------------------------

    def _start_attempt(self, key, record, run, duration_us) -> None:
        now = self.scheduler.now_us()
        worker = min(range(len(self._free_at_us)),
                     key=lambda i: self._free_at_us[i])
        start = max(now, self._free_at_us[worker])
        finish = start + duration_us
        self._free_at_us[worker] = finish
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                "compile:attempt", parent=ROOT, key=_key_label(key),
                attempt=record.attempts + 1, worker=worker,
                slot_start_us=start)
        self.scheduler.call_at(
            finish,
            lambda: self._finish_attempt(key, record, run, duration_us,
                                         span))

    def _finish_attempt(self, key, record, run, duration_us,
                        span) -> None:
        attempt = record.attempts
        if self._attempt(key, record, run, span, self.tracer):
            self.scheduler.call_after(
                self.backoff_us * self.backoff_multiplier ** attempt,
                lambda: self._start_attempt(key, record, run,
                                            duration_us))

    def _attempt(self, key, record: _Record, run, span, tracer) -> bool:
        """Run one attempt and settle its outcome; True = retry it.

        This is the one place a compile outcome is decided.  A
        :class:`TransientCompileError` retries until ``max_retries`` is
        spent; a :class:`PermanentCompileError` — or any other
        exception, which no retry is known to fix — quarantines.
        """
        attempt = record.attempts
        record.attempts += 1
        try:
            run(attempt)
        except TransientCompileError:
            self.stats.transient_failures += 1
            tracer.end(span, outcome="transient_failure")
            if record.attempts <= self.max_retries:
                return True
        except PermanentCompileError:
            self.stats.permanent_failures += 1
            tracer.end(span, outcome="permanent_failure")
        except Exception as exc:  # noqa: BLE001 - contained, quarantines
            self.stats.permanent_failures += 1
            tracer.end(span, outcome="error", error=type(exc).__name__)
        else:
            record.state = CompileState.READY
            record.finished_at_us = self.scheduler.now_us()
            self.stats.compiles_succeeded += 1
            tracer.end(span, outcome="ready")
            if tracer.enabled:
                tracer.event("compile:ready", parent=ROOT,
                             key=_key_label(key))
            return False
        record.state = CompileState.QUARANTINED
        record.finished_at_us = self.scheduler.now_us()
        self.stats.quarantined += 1
        if tracer.enabled:
            tracer.event("compile:quarantine", parent=ROOT,
                         key=_key_label(key))
        return False
