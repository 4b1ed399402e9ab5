"""The serving fleet: N replicas per model behind a routing layer.

``FleetEngine`` scales :class:`~repro.serving.engine.ServingEngine` from
one simulated device server to a cluster of them (see internals.md §15).
The request lifecycle adds two stages in front of the single-replica
path:

- **admission** — per-tenant token-bucket quotas
  (:class:`~repro.serving.router.AdmissionController`).  An exhausted
  tenant is SHED at the fleet edge, before routing, so one tenant cannot
  fill any replica's queue;
- **routing** — a pluggable :class:`~repro.serving.router.RoutingPolicy`
  picks the replica.  The default, signature affinity, rendezvous-hashes
  (model, signature) onto the active replica set, which is the fleet
  analogue of the paper's shape-specialization caching: a signature
  class is cheap exactly on the replica whose launch-plan cache already
  holds it.  Batching replicas are placed by batch instead: a request
  joins the replica where its bucket's batch is forming.

Replicas run a three-state lifecycle — ACTIVE → DRAINING → RETIRED.  A
draining replica takes no new routes but finishes everything already
queued, so scale-down never loses or double-serves a request.  The
optional autoscaler ticks on the virtual clock: sustained queue depth
(or a p99 breach over the trailing response window) scales up, a
replica idle past ``idle_retire_us`` drains down to ``min_replicas``.
The tick loop disarms when the fleet is idle at minimum size, so
``run_until_idle`` terminates.

Each replica owns its compile pool, and with it its compile state and
quarantine: a fault on one replica never taints another.

Everything runs on the injectable clock/scheduler; ``fleet.events`` is
an exact per-event transcript (route decisions, queue-depth snapshots,
sheds, scale events) that replays bit-for-bit for a fixed seed — the
:class:`~repro.serving.cluster.ClusterSim` harness and the fleet fuzz
oracle are built on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from ..core.pipeline import CompileOptions, compile_graph
from ..device.profiles import DeviceProfile
from ..ir.graph import Graph
from ..obs.tracer import resolve_tracer
from ..runtime.executable import Executable
from ..runtime.launchplan import SharedPlans, format_signature
from .batching import BatchingOptions, BatchingServingEngine
from .engine import (Request, Response, ResponseStatus, ServingEngine,
                     ServingOptions, Ticket)
from .fallback import EagerFallback
from .router import (AdmissionController, RouteDecision, RoutingPolicy,
                     make_policy)
from .scheduler import VirtualScheduler

__all__ = ["AutoscalerOptions", "FleetEngine", "FleetOptions",
           "FleetTicket", "ReplicaState"]

#: per-replica fault factory: ``uid -> compile_fault | None``.
FaultFactory = Callable[[int], object]


class ReplicaState(Enum):
    ACTIVE = "active"       # routable
    DRAINING = "draining"   # no new routes; finishing queued work
    RETIRED = "retired"     # drained and removed from the fleet


@dataclass
class AutoscalerOptions:
    """The autoscaler's thresholds, all in virtual time.

    Scale-up fires when the mean waiting depth per active replica stays
    at or above ``scale_up_queue_depth`` (or, if set, the trailing p99
    stays above ``scale_up_p99_us``) for ``sustain_us``, at most once
    per ``cooldown_us``.  Scale-down drains one replica per tick once it
    has been idle for ``idle_retire_us``, never below ``min_replicas``.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    #: mean waiting requests per active replica that counts as a breach.
    scale_up_queue_depth: float = 8.0
    #: optional trailing-window p99 breach threshold (None = depth only).
    scale_up_p99_us: float | None = None
    #: responses in the trailing p99 window.
    p99_window: int = 64
    #: how long a breach must persist before scaling up.
    sustain_us: float = 30_000.0
    #: minimum gap between scale-ups.
    cooldown_us: float = 100_000.0
    #: idle time after which an above-minimum replica is drained.
    idle_retire_us: float = 300_000.0
    #: tick period of the evaluation loop.
    evaluate_every_us: float = 10_000.0


@dataclass
class FleetOptions:
    """Fleet shape and policy knobs."""

    #: initial replica count.
    replicas: int = 2
    #: routing policy name ("affinity", "round_robin",
    #: "least_outstanding") or a :class:`RoutingPolicy` instance.
    policy: str | RoutingPolicy = "affinity"
    #: affinity only: queue depth at which requests spill off the
    #: affine replica to the least-loaded one; on batching replicas,
    #: the depth at which a replica takes no more joins.
    affinity_spill_depth: int = 8
    #: tenant -> (rate_per_s, burst) token-bucket quotas.
    tenant_quotas: Mapping[str, tuple[float, float]] | None = None
    #: quota applied to tenants not listed (None = unmetered).
    default_quota: tuple[float, float] | None = None
    #: per-replica serving configuration.
    serving: ServingOptions = field(default_factory=ServingOptions)
    #: when set, replicas are :class:`BatchingServingEngine`\ s.
    batching: BatchingOptions | None = None
    #: when set, the fleet scales itself (None = fixed size).
    autoscaler: AutoscalerOptions | None = None
    #: when set (a :class:`~repro.runtime.symplan.MemoryBudget`), the
    #: fleet treats it as one shared device-memory pool: every replica
    #: reserves the *proven* class-wide footprint of its registered
    #: models (symbolic peak x effective batch + constants), scale-ups
    #: that would overcommit the pool are blocked (counted and
    #: transcripted), and registering a model the current fleet cannot
    #: provably hold fails fast.  Models with no provable peak leave
    #: the fleet unconstrained — "cannot prove" is explicit, never an
    #: implicit admit.
    memory_budget: object | None = None


class FleetTicket:
    """Handed back by :meth:`FleetEngine.submit`.

    Wraps the replica's :class:`Ticket` plus the fleet-level route; a
    tenant-quota SHED never reaches a replica, so the fleet resolves the
    ticket itself with a synthesized SHED response.
    """

    __slots__ = ("seq", "tenant", "replica", "decision", "inner",
                 "_response")

    def __init__(self, seq: int, tenant: str,
                 replica: str | None = None,
                 decision: RouteDecision | None = None,
                 inner: Ticket | None = None,
                 response: Response | None = None) -> None:
        self.seq = seq
        self.tenant = tenant
        self.replica = replica
        self.decision = decision
        self.inner = inner
        self._response = response

    @property
    def request(self) -> Request | None:
        return self.inner.request if self.inner is not None else None

    @property
    def response(self) -> Response | None:
        if self.inner is not None:
            return self.inner.response
        return self._response

    @property
    def done(self) -> bool:
        return self.response is not None


class _Replica:
    """One serving engine plus its fleet-side lifecycle state."""

    __slots__ = ("name", "uid", "engine", "state", "created_us",
                 "last_busy_us", "routed")

    def __init__(self, name: str, uid: int, engine: ServingEngine,
                 created_us: float) -> None:
        self.name = name
        self.uid = uid
        self.engine = engine
        self.state = ReplicaState.ACTIVE
        self.created_us = created_us
        self.last_busy_us = created_us
        self.routed = 0

    # -- the ReplicaView protocol (what policies may observe) -------------

    def waiting(self) -> int:
        return self.engine._waiting()

    def outstanding(self) -> int:
        """Requests routed here that have not yet been responded to."""
        return (self.engine.counters["submitted"]
                - len(self.engine.completed))

    def warm(self, model: str, signature: tuple) -> bool:
        entry = self.engine._models.get(model)
        return (entry is not None
                and entry.engine.peek_plan(signature) is not None)

    def forming(self, model: str, signature: tuple) -> int | None:
        return self.engine.forming(model, signature)


class FleetEngine:
    """Routes requests for named models across a replica set."""

    def __init__(self, device: DeviceProfile,
                 scheduler: VirtualScheduler,
                 options: FleetOptions | None = None,
                 compile_fault_factory: FaultFactory | None = None,
                 tuning_fault_factory: FaultFactory | None = None,
                 tracer=None) -> None:
        self.device = device
        self.scheduler = scheduler
        self.options = options or FleetOptions()
        if self.options.replicas < 1:
            raise ValueError("need at least one replica")
        self.tracer = resolve_tracer(tracer)
        self._raw_tracer = tracer
        policy = self.options.policy
        if isinstance(policy, str):
            kwargs = ({"spill_depth": self.options.affinity_spill_depth}
                      if policy == "affinity" else {})
            policy = make_policy(policy, **kwargs)
        self.policy: RoutingPolicy = policy
        self.admission = AdmissionController(
            self.options.tenant_quotas, self.options.default_quota)
        self._compile_fault_factory = compile_fault_factory
        self._tuning_fault_factory = tuning_fault_factory
        #: model name -> (executable, compile_options, what every
        #: replica shares: ``register_model`` keywords) for replica boots.
        self._registry: dict[str, tuple[Executable, CompileOptions | None,
                                        dict]] = {}
        self._replicas: list[_Replica] = []
        self.retired: list[_Replica] = []
        self._next_uid = 0
        self._next_seq = 0
        self.tickets: list[FleetTicket] = []
        #: the exact per-event transcript: plain tuples, replayable.
        self.events: list[tuple] = []
        self.counters = {
            "routed": 0, "tenant_shed": 0,
            "affinity_hits": 0, "affinity_misses": 0,
            "affinity_spills": 0,
            "scale_ups": 0, "drains": 0, "retires": 0,
            "memory_blocked_scale_ups": 0,
        }
        self.memory_budget = self.options.memory_budget
        #: model -> proven per-replica footprint bytes (None when the
        #: class peak has no finite proven bound).
        self._model_footprints: dict[str, int | None] = {}
        auto = self.options.autoscaler
        if auto is not None:
            if auto.min_replicas < 1:
                raise ValueError("min_replicas must be >= 1")
            if self.options.replicas < auto.min_replicas:
                raise ValueError("replicas below autoscaler min_replicas")
        self._tick_armed = False
        self._breach_since_us: float | None = None
        self._last_scale_up_us: float | None = None
        for _ in range(self.options.replicas):
            self._add_replica(reason="initial")

    # -- replica lifecycle -------------------------------------------------

    def _add_replica(self, reason: str) -> _Replica:
        uid = self._next_uid
        self._next_uid += 1
        name = f"r{uid}"
        serving = self.options.serving
        faults = dict(
            compile_fault=(self._compile_fault_factory(uid)
                           if self._compile_fault_factory is not None
                           else None),
            tuning_fault=(self._tuning_fault_factory(uid)
                          if self._tuning_fault_factory is not None
                          else None))
        if self.options.batching is not None:
            engine = BatchingServingEngine(
                self.device, self.scheduler, serving,
                self.options.batching, tracer=self._raw_tracer,
                name=name, **faults)
        else:
            engine = ServingEngine(
                self.device, self.scheduler, serving,
                tracer=self._raw_tracer, name=name, **faults)
        for model, (executable, compile_options,
                    shared) in self._registry.items():
            engine.register_model(model, executable, compile_options,
                                  **shared)
        now = self.scheduler.now_us()
        replica = _Replica(name, uid, engine, now)
        self._replicas.append(replica)
        self._record(("replica_up", now, name, reason))
        if self.tracer.enabled:
            self.tracer.event("fleet:replica_up", replica=name,
                              reason=reason)
        return replica

    def active_replicas(self) -> list[_Replica]:
        return [r for r in self._replicas
                if r.state is ReplicaState.ACTIVE]

    def replicas(self) -> list[_Replica]:
        """Live (active + draining) replicas, in boot order."""
        return list(self._replicas)

    def replica(self, name: str) -> _Replica:
        for replica in self._replicas + self.retired:
            if replica.name == name:
                return replica
        raise KeyError(f"no replica named {name!r}")

    def drain(self, name: str, reason: str = "manual") -> None:
        """Stop routing to ``name``; retire it once its work finishes."""
        replica = self.replica(name)
        if replica.state is not ReplicaState.ACTIVE:
            return
        if len(self.active_replicas()) <= 1:
            raise ValueError("cannot drain the last active replica")
        replica.state = ReplicaState.DRAINING
        self.counters["drains"] += 1
        now = self.scheduler.now_us()
        self._record(("drain", now, name, reason))
        if self.tracer.enabled:
            self.tracer.event("fleet:drain", replica=name, reason=reason)
        self._poll_retire(replica)

    def _poll_retire(self, replica: _Replica) -> None:
        if replica.outstanding() == 0:
            self._retire(replica)
            return
        self.scheduler.call_after(1_000.0,
                                  lambda: self._poll_retire(replica))

    def _retire(self, replica: _Replica) -> None:
        replica.state = ReplicaState.RETIRED
        self._replicas.remove(replica)
        self.retired.append(replica)
        self.counters["retires"] += 1
        now = self.scheduler.now_us()
        self._record(("retire", now, replica.name))
        if self.tracer.enabled:
            self.tracer.event("fleet:retire", replica=replica.name)

    # -- registration ------------------------------------------------------

    def register_model(self, name: str, model: Graph | Executable,
                       compile_options: CompileOptions | None = None
                       ) -> None:
        """Compile once, register on every replica.

        The one executable is shared: its compiled host program is
        cached on the executable itself, so N replica engines replay
        the same lowering instead of compiling it N times.  So is one
        eager fallback: its PyTorch cost model never compiles, so a
        charge reads no state an earlier charge wrote, and every replica
        (including ones booted later) charges through the same one.  And
        so is one frozen-plan memo: the replicas freeze each heuristic
        plan once, while each keeps its own plan cache and statistics.
        """
        if name in self._registry:
            raise ValueError(f"model {name!r} already registered")
        if isinstance(model, Graph):
            executable = compile_graph(model, compile_options)
        else:
            executable = model
        fallback = EagerFallback(executable, self.device)
        assert fallback.eager.spec.compile_policy == "none", \
            "a shared eager fallback must charge statelessly"
        self._registry[name] = (executable, compile_options, {
            "fallback": fallback,
            "shared_plans": SharedPlans(executable)})
        self._model_footprints[name] = self._footprint_of(executable)
        if self.memory_budget is not None:
            total = self.replica_footprint_bytes()
            cap = self.memory_budget.max_replicas(total)
            if cap is not None and cap < len(self.active_replicas()):
                del self._registry[name]
                del self._model_footprints[name]
                raise ValueError(
                    f"model {name!r}: fleet of "
                    f"{len(self.active_replicas())} replicas needs "
                    f"{total * len(self.active_replicas())} proven "
                    f"bytes but the budget holds "
                    f"{self.memory_budget.usable_bytes}")
        for replica in self._replicas:
            replica.engine.register_model(name, executable,
                                          compile_options,
                                          **self._registry[name][2])

    # -- memory accounting ---------------------------------------------------

    def _footprint_of(self, executable: Executable) -> int | None:
        """Proven per-replica device bytes one model needs: the
        class-wide symbolic peak at the effective batch size, plus the
        constant pool.  None when no finite bound is provable."""
        symbolic = executable.symbolic_plan
        batch = 1
        if self.options.batching is not None:
            batch = self.options.batching.max_batch_size
            if self.memory_budget is not None:
                cap = self.memory_budget.max_batch_size(symbolic,
                                                        limit=batch)
                if cap is not None:
                    batch = max(min(batch, cap), 1)
        return symbolic.footprint_hi_bytes(batch)

    def replica_footprint_bytes(self) -> int | None:
        """Proven bytes one replica reserves (every replica hosts every
        registered model); None while any model's peak is unproven."""
        if not self._model_footprints:
            return None
        total = 0
        for footprint in self._model_footprints.values():
            if footprint is None:
                return None
            total += footprint
        return total

    def _max_replicas_allowed(self, configured: int) -> int:
        """``configured``, tightened by the memory budget when the
        per-replica footprint is provable."""
        if self.memory_budget is None:
            return configured
        cap = self.memory_budget.max_replicas(
            self.replica_footprint_bytes())
        if cap is None:
            return configured
        return min(configured, cap)

    # -- request intake ----------------------------------------------------

    def submit(self, model: str, inputs: Mapping[str, np.ndarray],
               tenant: str = "default",
               deadline_us: float | None = None) -> FleetTicket:
        """Admit (tenant quota), route (policy), and submit one request."""
        if model not in self._registry:
            raise KeyError(f"model {model!r} not registered")
        now = self.scheduler.now_us()
        seq = self._next_seq
        self._next_seq += 1
        executable = self._registry[model][0]
        signature = executable.host_program.signature(inputs)

        if not self.admission.admit(tenant, now):
            return self._shed(seq, tenant, model, signature, now)

        active = self.active_replicas()
        decision = self.policy.choose(model, signature, active)
        replica = next(r for r in active if r.name == decision.replica)
        decision = replace(decision, warm=replica.warm(model, signature))
        self._account_route(decision)
        depths = tuple((r.name, r.waiting()) for r in active)
        self._record(("route", now, seq, tenant, model,
                      format_signature(signature), decision.replica,
                      decision.policy, decision.affine, decision.spilled,
                      decision.warm, depths))
        if self.tracer.enabled:
            self.tracer.event(
                "fleet:route", seq=seq, tenant=tenant, model=model,
                replica=decision.replica, policy=decision.policy,
                spilled=decision.spilled, warm=decision.warm)
        inner = replica.engine.submit(model, inputs, deadline_us)
        replica.routed += 1
        replica.last_busy_us = now
        ticket = FleetTicket(seq, tenant, replica=replica.name,
                             decision=decision, inner=inner)
        self.tickets.append(ticket)
        self._arm_tick()
        return ticket

    def _shed(self, seq: int, tenant: str, model: str,
              signature: tuple, now: float) -> FleetTicket:
        self.counters["tenant_shed"] += 1
        self._record(("shed", now, seq, tenant, model))
        if self.tracer.enabled:
            self.tracer.event("fleet:shed", seq=seq, tenant=tenant,
                              model=model)
        response = Response(
            request_id=seq, model=model, status=ResponseStatus.SHED,
            path=None, outputs=None, stats=None, signature=signature,
            arrival_us=now, finish_us=now)
        ticket = FleetTicket(seq, tenant, response=response)
        self.tickets.append(ticket)
        return ticket

    def _account_route(self, decision: RouteDecision) -> None:
        self.counters["routed"] += 1
        if decision.affine is not None:
            if decision.spilled:
                self.counters["affinity_spills"] += 1
            elif decision.warm:
                self.counters["affinity_hits"] += 1
            else:
                self.counters["affinity_misses"] += 1

    # -- autoscaling -------------------------------------------------------

    def _arm_tick(self) -> None:
        if self.options.autoscaler is None or self._tick_armed:
            return
        self._tick_armed = True
        self.scheduler.call_after(
            self.options.autoscaler.evaluate_every_us, self._tick)

    def _outstanding(self) -> int:
        return sum(r.outstanding() for r in self._replicas)

    def _trailing_p99_us(self) -> float | None:
        """p99 latency over the trailing OK-response window (or None)."""
        window = self.options.autoscaler.p99_window
        responses = []
        for replica in self._replicas + self.retired:
            responses.extend(r for r in replica.engine.completed[-window:]
                             if r.ok)
        if not responses:
            return None
        responses.sort(key=lambda r: r.finish_us)
        latencies = sorted(r.latency_us for r in responses[-window:])
        rank = max(1, int(np.ceil(0.99 * len(latencies))))
        return latencies[rank - 1]

    def _tick(self) -> None:
        self._tick_armed = False
        auto = self.options.autoscaler
        now = self.scheduler.now_us()
        active = self.active_replicas()

        # -- scale up on a sustained breach --------------------------------
        mean_depth = (sum(r.waiting() for r in active) / len(active)
                      if active else 0.0)
        breach = mean_depth >= auto.scale_up_queue_depth
        if not breach and auto.scale_up_p99_us is not None:
            p99 = self._trailing_p99_us()
            breach = p99 is not None and p99 > auto.scale_up_p99_us
        if breach:
            if self._breach_since_us is None:
                self._breach_since_us = now
            sustained = now - self._breach_since_us >= auto.sustain_us
            cooled = (self._last_scale_up_us is None
                      or now - self._last_scale_up_us >= auto.cooldown_us)
            if sustained and cooled and len(active) < auto.max_replicas:
                allowed = self._max_replicas_allowed(auto.max_replicas)
                if len(active) < allowed:
                    self.counters["scale_ups"] += 1
                    self._last_scale_up_us = now
                    self._breach_since_us = None
                    self._add_replica(reason="autoscale")
                else:
                    # Scaling is load-justified but would overcommit
                    # the proven memory pool; record the block and
                    # restart the sustain window so the transcript
                    # stays bounded.
                    self.counters["memory_blocked_scale_ups"] += 1
                    self._breach_since_us = None
                    self._record(("scale_blocked_memory", now,
                                  len(active), allowed))
        else:
            self._breach_since_us = None

        # -- drain one idle replica per tick -------------------------------
        active = self.active_replicas()
        if len(active) > auto.min_replicas:
            for replica in sorted(active, key=lambda r: -r.uid):
                if (replica.outstanding() == 0
                        and now - replica.last_busy_us
                        >= auto.idle_retire_us):
                    self.drain(replica.name, reason="idle")
                    break

        # Re-arm while there is anything left to converge: outstanding
        # work, a drain in flight, or idle capacity above the floor.
        # Idle at minimum size the loop disarms, so run_until_idle ends.
        if (self._outstanding() > 0
                or any(r.state is ReplicaState.DRAINING
                       for r in self._replicas)
                or len(self.active_replicas()) > auto.min_replicas):
            self._arm_tick()

    # -- transcripts / reporting -------------------------------------------

    def _record(self, event: tuple) -> None:
        self.events.append(event)

    def transcript(self) -> tuple:
        """Fleet events + per-request responses, merged by time.

        A plain tuple of tuples: hashable, comparable, and bit-for-bit
        reproducible for a fixed seed — the replay contract ClusterSim
        and the determinism suites assert on.
        """
        merged = [(event[1], 0, event) for event in self.events]
        for ticket in self.tickets:
            response = ticket.response
            if response is None or ticket.inner is None:
                continue
            merged.append((
                response.finish_us, 1,
                ("response", response.finish_us, ticket.seq,
                 ticket.replica, response.status.value, response.path,
                 format_signature(response.signature))))
        merged.sort(key=lambda item: (item[0], item[1], item[2]))
        return tuple(event for _, _, event in merged)

    def responses(self) -> list[Response]:
        return [t.response for t in self.tickets if t.response is not None]

    def stats(self) -> dict:
        """Fleet counters plus per-replica stats.

        Relies on the namespaced per-replica ``ServingEngine.stats()``:
        request counters and pool stats sum across replicas.
        """
        per_replica = {r.name: r.engine.stats()
                       for r in self._replicas + self.retired}
        requests: dict = {}
        pool: dict = {}
        for stats in per_replica.values():
            for key, value in stats["requests"].items():
                requests[key] = requests.get(key, 0) + value
            for key, value in stats["pool"].items():
                pool[key] = pool.get(key, 0) + value
        footprint = self.replica_footprint_bytes()
        memory = {
            "budget_bytes": (self.memory_budget.usable_bytes
                             if self.memory_budget is not None else None),
            "footprint_per_replica_bytes": footprint,
            "replica_cap": (self.memory_budget.max_replicas(footprint)
                            if self.memory_budget is not None else None),
            "model_footprints": dict(self._model_footprints),
        }
        return {
            "fleet": dict(self.counters),
            "memory": memory,
            "replicas": {
                r.name: {"state": r.state.value, "routed": r.routed}
                for r in self._replicas + self.retired},
            "requests": requests,
            "pool": pool,
            "admission": {"admitted": dict(self.admission.admitted),
                          "shed": dict(self.admission.shed)},
            "per_replica": per_replica,
        }
