"""The serving engine: async compilation behind a live request path.

``ServingEngine`` fronts the compiled stack for named models.  Its
request lifecycle (see internals.md §10):

- **submit** computes the request's shape signature, applies admission
  control (a bounded waiting queue; overflow is *shed* immediately), and
  arms the per-request deadline timer;
- **dispatch** pulls the next request when the (single, simulated)
  device server frees up and picks its path *at service start*:

  - warm signature → the :class:`ExecutionEngine` launch-plan replay
    path (fast);
  - cold signature, compile-once (``compile_cost=None``, the default
    and DISC's path) → the shape-generic executable runs *now*: its
    first call records, freezes and installs the heuristic launch plan
    (fast).  With a tuner, the background pool then searches the
    signature's schedules and upgrades the plan in place;
  - cold signature under an explicit per-shape compile cost (the
    per-shape-JIT baseline) → answered on the eager fallback *now*,
    while the background pool compiles the launch plan (submit or
    coalesce); a quarantined signature skips the pool and stays on the
    fallback;
  - cold with ``background_compile=False`` → the synchronous-compile
    baseline E16 measures against: the server stalls for the compile,
    then serves the (now warm) plan;

- **complete** responds OK unless the deadline expired mid-service, in
  which case the timeout response already went out at the deadline.

Every response that carries outputs is bit-identical to a direct
single-threaded ``ExecutionEngine`` run of the same request, whichever
path served it.  Compile faults — injected or real — retry with backoff
and at worst quarantine a key: under the per-shape JIT its signature
stays on the fallback, under compile-once it only loses its tuning.
They are invisible in the response stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from ..core.pipeline import CompileOptions, compile_graph
from ..device.counters import RunStats
from ..device.profiles import DeviceProfile
from ..ir.graph import Graph
from ..obs.tracer import resolve_tracer
from ..runtime.engine import EngineOptions, ExecutionEngine
from ..runtime.executable import Executable
from ..runtime.launchplan import SharedPlans, format_signature
from ..tuning import ScheduleTuner, TuningOptions
from .compilepool import (BackgroundCompilePool, CompileState,
                          PermanentCompileError, SignatureCompileCost,
                          TransientCompileError)
from .fallback import EagerFallback
from .scheduler import VirtualScheduler

__all__ = ["PathRouter", "Request", "Response", "ResponseStatus",
           "ServingEngine", "ServingOptions", "Ticket"]

#: fault injector signature: (model, signature, attempt) -> None, raising
#: TransientCompileError / PermanentCompileError to fail the attempt.
CompileFault = Callable[[str, tuple, int], None]


class ResponseStatus(Enum):
    OK = "ok"
    TIMEOUT = "timeout"
    SHED = "shed"


@dataclass
class ServingOptions:
    """Policy knobs of the serving runtime."""

    #: bound on *waiting* requests; arrivals beyond it are shed.
    queue_capacity: int = 64
    #: simulated background compile slots.
    compile_workers: int = 2
    #: transient-failure retries before a signature is quarantined.
    max_compile_retries: int = 2
    #: first retry delay; grows by ``backoff_multiplier`` per attempt.
    compile_backoff_us: float = 50_000.0
    backoff_multiplier: float = 2.0
    #: False = synchronous-compile baseline (cold signatures stall);
    #: it needs a per-shape ``compile_cost``.
    background_compile: bool = True
    #: None = compile once (DISC's path): the executable is
    #: shape-generic, so a cold signature's first run freezes its plan
    #: inline, charged what the generic engine charges, and the pool
    #: runs tuning jobs only.  A :class:`SignatureCompileCost` selects
    #: the per-shape-JIT baseline: every new ``(model, signature)``
    #: waits for a compile of that duration on the eager fallback.
    compile_cost: SignatureCompileCost | None = None
    engine: EngineOptions = field(default_factory=EngineOptions)
    #: budgeted background schedule autotuning (None = heuristics only).
    #: When set, every background job additionally runs the schedule
    #: search for its signature — sized into the job's duration as
    #: ``min(budget_us, tuner.estimate_cost_us(model))`` — and freezes
    #: the winners into the launch plan, so the fast path replays tuned
    #: picks at zero extra cost.
    tuning: TuningOptions | None = None

    def __post_init__(self) -> None:
        if not self.background_compile and self.compile_cost is None:
            raise ValueError("background_compile=False is the "
                             "synchronous-compile baseline; it needs a "
                             "per-shape compile_cost")


@dataclass
class Request:
    id: int
    model: str
    inputs: Mapping[str, np.ndarray]
    signature: tuple
    arrival_us: float
    deadline_us: float | None  # absolute virtual time, or None
    done: bool = False
    deadline_handle: object = None
    #: open ``request`` trace span (None when tracing is off).
    span: object = None


@dataclass
class Response:
    request_id: int
    model: str
    status: ResponseStatus
    #: which path produced the outputs: "fast", "fallback",
    #: "quarantined", "sync_compile"; None for shed/timeout responses.
    path: str | None
    outputs: list | None
    stats: RunStats | None
    signature: tuple
    arrival_us: float
    finish_us: float

    @property
    def latency_us(self) -> float:
        return self.finish_us - self.arrival_us

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK


class Ticket:
    """Handed back by ``submit``; resolves when the response lands."""

    __slots__ = ("request", "response")

    def __init__(self, request: Request) -> None:
        self.request = request
        self.response: Response | None = None


class _ModelEntry:
    __slots__ = ("name", "executable", "engine", "fallback",
                 "compile_duration_us", "tuning_duration_us")

    def __init__(self, name, executable, engine, fallback,
                 compile_duration_us,
                 tuning_duration_us: float = 0.0) -> None:
        self.name = name
        self.executable = executable
        self.engine = engine
        self.fallback = fallback
        #: per-shape compile time of each background job (0 under
        #: compile-once, whose jobs only tune).
        self.compile_duration_us = compile_duration_us
        #: per-signature schedule-search time added to each background
        #: job: ``min(budget, static search-cost bound)``.
        self.tuning_duration_us = tuning_duration_us


class PathRouter:
    """Chooses and executes the service path for one dispatched request.

    Split out of :class:`ServingEngine` so the three serving concerns
    live behind separable seams — *admission* (``submit``: shed + deadline
    decisions, always per request), *scheduling* (``_dispatch_next`` /
    ``_complete``: the single simulated device server), and *routing*
    (this class: warm plan / cold record / fallback / sync-compile /
    quarantine).  The batching engine reuses admission and scheduling
    unchanged and adds its own batched route in front of this one.

    ``route`` returns ``(path, outputs, stats, service_us)``.
    """

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine

    def route(self, request: Request) -> tuple:
        engine = self.engine
        entry = engine._models[request.model]
        key = (request.model, request.signature)
        tracer = engine.tracer
        plan = entry.engine.peek_plan(request.signature)
        # Compile once: a cold signature's first run records, freezes and
        # installs its heuristic plan, charged what a warm replay is.  A
        # key the pool quarantined has only lost its tuning, so this
        # comes before the quarantine check.
        if plan is not None or engine.options.compile_cost is None:
            if tracer.enabled:
                tracer.event("serving:route", path="fast")
            if plan is not None and plan.tuned:
                engine.counters["tuned_served"] += 1
            outputs, stats = entry.engine.run(request.inputs,
                                              request.signature)
            if plan is None and engine.tuner is not None \
                    and key not in engine._tuning_quarantined:
                self.ensure_compile(entry, request, key)
            return "fast", outputs, stats, stats.total_time_us

        if engine.pool.state(key) is CompileState.QUARANTINED:
            if tracer.enabled:
                tracer.event("serving:route", path="quarantined")
            with tracer.span("fallback:run"):
                outputs, stats = entry.fallback.run(request.inputs)
            return "quarantined", outputs, stats, stats.total_time_us

        if not engine.options.background_compile:
            if tracer.enabled:
                tracer.event("serving:route", path="sync_compile")
            return self._route_sync_compile(entry, request, key)

        if tracer.enabled:
            tracer.event("serving:route", path="fallback")
        self.ensure_compile(entry, request, key)
        with tracer.span("fallback:run"):
            outputs, stats = entry.fallback.run(request.inputs)
        return "fallback", outputs, stats, stats.total_time_us

    def _route_sync_compile(self, entry: _ModelEntry, request: Request,
                            key: tuple) -> tuple:
        """Synchronous-compile baseline: the compile stalls the server.

        The pool runs the attempts inline under its usual retry and
        quarantine rules (each attempt stalls another compile duration);
        a quarantined key is served eagerly, so errors never reach the
        response in either mode.
        """
        engine = self.engine
        stall_us = engine.pool.compile_now(
            key, engine._compile_job(key), entry.compile_duration_us)
        if engine.pool.state(key) is CompileState.QUARANTINED:
            outputs, stats = entry.fallback.run(request.inputs)
            return ("quarantined", outputs, stats,
                    stall_us + stats.total_time_us)
        engine.counters["sync_compile_stalls"] += 1
        engine.counters["sync_stall_us"] += stall_us
        outputs, stats = entry.engine.run(request.inputs)
        stats.compile_time_us += stall_us
        return "sync_compile", outputs, stats, stats.total_time_us

    def ensure_compile(self, entry: _ModelEntry, request: Request,
                       key: tuple) -> None:
        """Submit (or coalesce onto) the background job for ``key``.

        With tuning enabled the job also runs the budgeted schedule
        search and freezes its winners into the plan; the job's duration
        is sized up by the model's bounded tuning time.  Under
        compile-once the job *only* tunes: its compile duration is 0 and
        the heuristic plan it would install is already there.  A tuner
        fault never loses the signature: the search is abandoned, the
        key is tuning-quarantined, and the job completes with the
        heuristic plan — only compile faults reach the pool's retry
        machinery.
        """
        engine = self.engine
        inputs = request.inputs
        model, signature = key

        def install(attempt: int) -> None:
            tuner = engine.tuner
            if tuner is not None \
                    and key not in engine._tuning_quarantined:
                try:
                    if engine._tuning_fault is not None:
                        engine._tuning_fault(model, signature, attempt)
                    result = tuner.tune(entry.executable, signature)
                except (TransientCompileError, PermanentCompileError):
                    raise
                except Exception:
                    engine.counters["tuning_faults"] += 1
                    engine._tuning_quarantined.add(key)
                    if engine.tracer.enabled:
                        engine.tracer.event("tuning:fault", model=model,
                                            signature=format_signature(
                                                signature))
                else:
                    engine._note_tuning(result)
                    entry.engine.prepare(inputs, signature,
                                         selector=result.selector(),
                                         overwrite=True)
                    return
            entry.engine.prepare(inputs, signature)

        duration = entry.compile_duration_us
        if engine.tuner is not None \
                and key not in engine._tuning_quarantined:
            duration += entry.tuning_duration_us
        engine.pool.ensure(key, engine._compile_job(key, install), duration)


class ServingEngine:
    """Serves named models over one simulated device server.

    ``compile_fault`` injects compile failures (the fuzz oracle and the
    robustness tests use :class:`repro.fuzz.faults.CompileFaultInjector`);
    production wiring leaves it None.
    """

    #: response path -> served counter; subclasses extend (the batching
    #: engine adds its ``batched`` path).
    PATH_COUNTERS = {
        "fast": "fast_served",
        "fallback": "fallback_served",
        "quarantined": "quarantine_served",
        "sync_compile": "sync_served",
    }

    def __init__(self, device: DeviceProfile,
                 scheduler: VirtualScheduler,
                 options: ServingOptions | None = None,
                 compile_fault: CompileFault | None = None,
                 tuning_fault: CompileFault | None = None,
                 tracer=None, *, name: str = "serving") -> None:
        self.device = device
        self.scheduler = scheduler
        self.options = options or ServingOptions()
        #: replica identity; namespaces this engine's stats so a fleet
        #: can aggregate N replicas without counter collisions.
        self.name = name
        #: request-lifecycle spans + ``serving:*`` events (None = off).
        #: Handed down to the compile pool and to every registered
        #: model's engine so one trace covers the whole request path.
        self.tracer = resolve_tracer(tracer)
        self._raw_tracer = tracer
        self.pool = BackgroundCompilePool(
            scheduler,
            workers=self.options.compile_workers,
            max_retries=self.options.max_compile_retries,
            backoff_us=self.options.compile_backoff_us,
            backoff_multiplier=self.options.backoff_multiplier,
            tracer=tracer)
        self._compile_fault = compile_fault
        self._tuning_fault = tuning_fault
        #: the background schedule autotuner (None = heuristics only).
        self.tuner = ScheduleTuner(device, self.options.tuning,
                                   tracer=tracer) \
            if self.options.tuning is not None else None
        self._models: dict[str, _ModelEntry] = {}
        self._queue: deque[Request] = deque()
        self._current: Request | None = None
        self._tickets: dict[int, Ticket] = {}
        self._next_id = 0
        #: every response, in the order they went out (OK + timeout + shed).
        self.completed: list[Response] = []
        #: keys whose schedule search faulted: they keep compiling and
        #: serving, on heuristic picks only.
        self._tuning_quarantined: set[tuple] = set()
        self.counters = {
            "submitted": 0, "ok": 0, "shed": 0, "timeouts": 0,
            "fast_served": 0, "fallback_served": 0,
            "quarantine_served": 0, "sync_served": 0,
            "sync_compile_stalls": 0, "sync_stall_us": 0.0,
            "tuned_signatures": 0, "tuned_served": 0,
            "tuning_faults": 0, "tuning_budget_exhausted": 0,
        }
        #: aggregated search accounting across all tuned signatures.
        self.tuning_totals = {
            "spent_us": 0.0, "enumerated": 0, "pruned": 0, "scored": 0,
            "kernels": 0, "improved": 0,
        }
        self.router = PathRouter(self)

    # -- registration ------------------------------------------------------

    def register_model(self, name: str,
                       model: Graph | Executable,
                       compile_options: CompileOptions | None = None,
                       *, fallback: EagerFallback | None = None,
                       shared_plans: SharedPlans | None = None
                       ) -> _ModelEntry:
        """Compile (if needed) and install a model.

        ``fallback`` is an eager fallback already built for ``model``'s
        executable and ``shared_plans`` a frozen-plan memo for it (a
        fleet builds one of each per model and shares them across its
        replicas); None builds this engine's own fallback and shares no
        plan.
        """
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        if isinstance(model, Graph):
            executable = compile_graph(model, compile_options)
        else:
            executable = model
        engine = ExecutionEngine(executable, self.device,
                                 self.options.engine,
                                 tracer=self._raw_tracer,
                                 shared_plans=shared_plans)
        if fallback is None:
            fallback = EagerFallback(executable, self.device)
        cost = self.options.compile_cost
        duration = 0.0 if cost is None \
            else cost.duration_us(len(executable.kernels))
        tuning_duration = 0.0
        if self.tuner is not None:
            tuning_duration = min(
                self.tuner.options.budget_us,
                self.tuner.estimate_cost_us(executable))
        entry = _ModelEntry(name, executable, engine, fallback, duration,
                            tuning_duration)
        self._models[name] = entry
        return entry

    def model(self, name: str) -> _ModelEntry:
        return self._models[name]

    # -- request intake ----------------------------------------------------

    def submit(self, model: str, inputs: Mapping[str, np.ndarray],
               deadline_us: float | None = None) -> Ticket:
        """Admit one request; returns a :class:`Ticket`.

        ``deadline_us`` is relative to now; None means no deadline.
        Admission control — the shed
        decision and the deadline timer — is strictly per request and
        happens *here*, before the request reaches any queue or batching
        bucket; no later placement step may shed or re-deadline it.
        """
        entry = self._models[model]
        request, ticket = self._admit(model, entry, inputs, deadline_us)

        if self._should_shed(request):
            self.counters["shed"] += 1
            if self.tracer.enabled:
                self.tracer.event("serving:shed", parent=request.span)
            self._respond(request, ResponseStatus.SHED, None, None, None)
            return ticket

        if request.deadline_us is not None:
            request.deadline_handle = self.scheduler.call_at(
                request.deadline_us, lambda: self._expire(request))
        self._enqueue(request)
        return ticket

    def _admit(self, model: str, entry: _ModelEntry,
               inputs: Mapping[str, np.ndarray],
               deadline_us: float | None) -> tuple[Request, Ticket]:
        """Mint the request + ticket and account the arrival."""
        now = self.scheduler.now_us()
        signature = entry.engine.host_program.signature(inputs)
        request = Request(
            id=self._next_id, model=model, inputs=inputs,
            signature=signature, arrival_us=now,
            deadline_us=(now + deadline_us if deadline_us is not None
                         else None))
        self._next_id += 1
        ticket = Ticket(request)
        self._tickets[request.id] = ticket
        self.counters["submitted"] += 1
        if self.tracer.enabled:
            request.span = self.tracer.begin(
                "request", id=request.id, model=model,
                signature=format_signature(signature))
            self.tracer.event("serving:admit", parent=request.span)
        return request, ticket

    def _waiting(self) -> int:
        """Requests admitted but not yet in service (the shed input).

        Overridable: the batching engine also counts bucketed members.
        """
        return len(self._queue)

    def forming(self, model: str, signature: tuple) -> int | None:
        """Members already waiting to batch with a request of
        ``signature``; None means this engine does not batch."""
        return None

    def _should_shed(self, request: Request) -> bool:
        return self._current is not None and \
            self._waiting() >= self.options.queue_capacity

    def _enqueue(self, request: Request) -> None:
        """Place one admitted request; overridable (batching buckets)."""
        self._queue.append(request)
        if self._current is None:
            self._dispatch_next()

    # -- dispatch / service ------------------------------------------------

    def _dispatch_next(self) -> None:
        if not self._queue:
            self._current = None
            return
        item = self._queue.popleft()
        self._current = item
        self._begin_service(item)

    def _begin_service(self, request: Request) -> None:
        """Route the dispatched item and schedule its completion.

        Overridable: the batching engine intercepts batch work items
        here; plain requests fall through to the router.
        """
        with self.tracer.attach(request.span):
            path, outputs, stats, service_us = self.router.route(request)
        finish = self.scheduler.now_us() + service_us
        self.scheduler.call_at(
            finish,
            lambda: self._complete([request], path, [outputs], stats))

    # -- completion / expiry -----------------------------------------------

    def _complete(self, members: list, path: str, outputs_list: list,
                  stats) -> None:
        """Answer the served ``members`` (one launch, one ``stats``) on
        ``path``, skipping any the deadline already answered, and free
        the server."""
        for request, outputs in zip(members, outputs_list):
            if not request.done:
                self.counters["ok"] += 1
                self.counters[self.PATH_COUNTERS[path]] += 1
                self._respond(request, ResponseStatus.OK, path, outputs,
                              stats)
        self._dispatch_next()

    def _expire(self, request: Request) -> None:
        """Deadline fired: withdraw the request and answer TIMEOUT now."""
        if request.done:
            return
        self.counters["timeouts"] += 1
        self._withdraw(request)
        if self.tracer.enabled:
            self.tracer.event("serving:timeout", parent=request.span)
        self._respond(request, ResponseStatus.TIMEOUT, None, None, None)

    def _withdraw(self, request: Request) -> None:
        """Take a timed-out request out of the queue; overridable (the
        batcher's buckets).  One in service stays there: its completion
        skips it."""
        if request is not self._current:
            self._queue.remove(request)

    def _respond(self, request: Request, status: ResponseStatus,
                 path: str | None, outputs, stats) -> None:
        request.done = True
        if request.deadline_handle is not None:
            request.deadline_handle.cancel()
        response = Response(
            request_id=request.id, model=request.model, status=status,
            path=path, outputs=outputs, stats=stats,
            signature=request.signature, arrival_us=request.arrival_us,
            finish_us=self.scheduler.now_us())
        self.completed.append(response)
        if self.tracer.enabled:
            self.tracer.event("serving:respond", parent=request.span,
                              status=status.value)
            self.tracer.end(request.span, status=status.value, path=path)
        ticket = self._tickets.pop(request.id, None)
        if ticket is not None:
            ticket.response = response

    # -- compilation -------------------------------------------------------

    def _compile_job(self, key: tuple,
                     install: Callable[[int], None] | None = None
                     ) -> Callable[[int], None]:
        """The one compile job every path hands the pool for ``key``.

        Each attempt runs the injected compile fault (if any), then
        ``install(attempt)``, which freezes the plan.  Whether a failed
        attempt retries or quarantines is the pool's decision alone.
        """
        model, signature = key

        def run(attempt: int) -> None:
            if self._compile_fault is not None:
                self._compile_fault(model, signature, attempt)
            if install is not None:
                install(attempt)

        return run

    # -- tuning accounting -------------------------------------------------

    def _note_tuning(self, result) -> None:
        """Fold one completed schedule search into the counters."""
        self.counters["tuned_signatures"] += 1
        if result.budget_exhausted:
            self.counters["tuning_budget_exhausted"] += 1
        totals = self.tuning_totals
        totals["spent_us"] += result.spent_us
        totals["enumerated"] += result.enumerated
        totals["pruned"] += sum(result.pruned.values())
        totals["scored"] += result.scored
        totals["kernels"] += len(result.kernels)
        totals["improved"] += sum(1 for k in result.kernels
                                  if k.improved)

    # -- reporting ---------------------------------------------------------

    def quarantined_signatures(self) -> set[tuple]:
        return self.pool.quarantined_keys()

    def tuning_quarantined_signatures(self) -> set[tuple]:
        return set(self._tuning_quarantined)

    def compile_state(self, model: str, signature: tuple) -> CompileState:
        return self.pool.state((model, signature))

    def stats(self) -> dict:
        stats = {
            "name": self.name,
            "requests": dict(self.counters),
            "pool": self.pool.stats.as_dict(),
            "quarantined_signatures": len(self.pool.quarantined_keys()),
            "models": {name: entry.engine.plans.stats()
                       for name, entry in self._models.items()},
        }
        if self.tuner is not None:
            stats["tuning"] = dict(
                self.tuning_totals,
                budget_us=self.tuner.options.budget_us,
                quarantined=len(self._tuning_quarantined))
        return stats
