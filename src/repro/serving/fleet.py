"""The serving fleet: N replicas per model behind a routing layer.

``FleetEngine`` scales :class:`~repro.serving.engine.ServingEngine` from
one simulated device server to a cluster of them (see internals.md §15).
The request lifecycle adds one stage in front of the single-replica
path: a pluggable :class:`~repro.serving.router.RoutingPolicy` picks the
replica.  The default, signature affinity, rendezvous-hashes (model,
signature) onto the active replica set, which is the fleet analogue of
the paper's shape-specialization caching: a signature class is cheap
exactly on the replica whose launch-plan cache already holds it.
Batching replicas are placed by batch instead: a request joins the
replica where its bucket's batch is forming.

Replicas run a three-state lifecycle — ACTIVE → DRAINING → RETIRED.  A
draining replica takes no new routes but finishes everything already
queued, so a drain never loses or double-serves a request.

Each replica owns its compile pool, and with it its compile state and
quarantine: a fault on one replica never taints another.

Everything runs on the injectable clock/scheduler; ``fleet.events`` is
an exact per-event transcript (route decisions, queue-depth snapshots,
drains and retirements) that replays bit-for-bit for a fixed seed — the
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
from .engine import Request, Response, ServingEngine, ServingOptions, Ticket
from .fallback import EagerFallback
from .router import RouteDecision, RoutingPolicy, make_policy
from .scheduler import VirtualScheduler

__all__ = ["FleetEngine", "FleetOptions", "FleetTicket", "ReplicaState"]

#: per-replica fault factory: ``uid -> compile_fault | None``.
FaultFactory = Callable[[int], object]


class ReplicaState(Enum):
    ACTIVE = "active"       # routable
    DRAINING = "draining"   # no new routes; finishing queued work
    RETIRED = "retired"     # drained and removed from the fleet


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
    #: per-replica serving configuration.
    serving: ServingOptions = field(default_factory=ServingOptions)
    #: when set, replicas are :class:`BatchingServingEngine`\ s.
    batching: BatchingOptions | None = None
    #: when set (a :class:`~repro.runtime.symplan.MemoryBudget`), the
    #: fleet treats it as one shared device-memory pool: every replica
    #: reserves the *proven* class-wide footprint of its registered
    #: models (symbolic peak x effective batch + constants), and
    #: registering a model the current fleet cannot provably hold fails
    #: fast.  Models with no provable peak leave the fleet unconstrained
    #: — "cannot prove" is explicit, never an implicit admit.
    memory_budget: object | None = None


class FleetTicket:
    """Handed back by :meth:`FleetEngine.submit`: the replica's
    :class:`Ticket` plus the fleet-level route."""

    __slots__ = ("seq", "tenant", "replica", "decision", "inner")

    def __init__(self, seq: int, tenant: str, replica: str,
                 decision: RouteDecision, inner: Ticket) -> None:
        self.seq = seq
        self.tenant = tenant
        self.replica = replica
        self.decision = decision
        self.inner = inner

    @property
    def request(self) -> Request:
        return self.inner.request

    @property
    def response(self) -> Response | None:
        return self.inner.response


class _Replica:
    """One serving engine plus its fleet-side lifecycle state."""

    __slots__ = ("name", "uid", "engine", "state", "routed")

    def __init__(self, name: str, uid: int, engine: ServingEngine) -> None:
        self.name = name
        self.uid = uid
        self.engine = engine
        self.state = ReplicaState.ACTIVE
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
            "routed": 0,
            "affinity_hits": 0, "affinity_misses": 0,
            "affinity_spills": 0,
            "drains": 0, "retires": 0,
        }
        self.memory_budget = self.options.memory_budget
        #: model -> proven per-replica footprint bytes (None when the
        #: class peak has no finite proven bound).
        self._model_footprints: dict[str, int | None] = {}
        for _ in range(self.options.replicas):
            self._add_replica()

    # -- replica lifecycle -------------------------------------------------

    def _add_replica(self) -> _Replica:
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
        replica = _Replica(name, uid, engine)
        self._replicas.append(replica)
        self._record(("replica_up", now, name, "initial"))
        if self.tracer.enabled:
            self.tracer.event("fleet:replica_up", replica=name,
                              reason="initial")
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

    # -- request intake ----------------------------------------------------

    def submit(self, model: str, inputs: Mapping[str, np.ndarray],
               tenant: str = "default",
               deadline_us: float | None = None) -> FleetTicket:
        """Route (policy) and submit one request."""
        if model not in self._registry:
            raise KeyError(f"model {model!r} not registered")
        now = self.scheduler.now_us()
        seq = self._next_seq
        self._next_seq += 1
        executable = self._registry[model][0]
        signature = executable.host_program.signature(inputs)
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
        ticket = FleetTicket(seq, tenant, replica.name, decision, inner)
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
            if response is None:
                continue
            merged.append((
                response.finish_us, 1,
                ("response", response.finish_us, ticket.seq,
                 ticket.replica, response.status.value, response.path,
                 format_signature(response.signature))))
        merged.sort(key=lambda item: (item[0], item[1], item[2]))
        return tuple(event for _, _, event in merged)

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
            "per_replica": per_replica,
        }
