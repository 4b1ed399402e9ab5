"""The fleet suite: routing, quotas, autoscaling, compile pools, replay.

Exact virtual-time tests throughout — every assertion is on precise
counters, replica names, and transcript events, never on "roughly".
The closing section mirrors the PR 4/6 determinism suites: one mixed
cluster scenario (simultaneous arrivals, per-replica compile faults, a
mid-stream drain) runs under 50 seeds; each seed must uphold every
fleet invariant and same-seed runs must replay the exact transcript.
"""

import numpy as np
import pytest

from repro.core import compile_graph
from repro.core.pipeline import CompileOptions
from repro.device import A10
from repro.fuzz import CompileFaultInjector, TunerFaultInjector
from repro.obs import MetricsRegistry, Tracer
from repro.runtime import EngineOptions, ExecutionEngine, MemoryBudget
from repro.serving import (Arrival, AutoscalerOptions, BatchingOptions,
                           ClusterSim, FleetEngine, FleetOptions, ReplicaState,
                           ResponseStatus, ServingOptions,
                           SignatureAffinityPolicy, TenantTraffic,
                           TokenBucket, VirtualClock, VirtualScheduler,
                           poisson_arrivals)
from repro.tuning import TuningOptions

from ..conftest import toy_mlp_graph, toy_mlp_inputs
from .conftest import FAST_COMPILE, bit_identical, make_fleet


@pytest.fixture(scope="module")
def proven_exe():
    """The toy MLP under declared deployment bounds: the symbolic peak
    is finitely proven, so :class:`MemoryBudget` has a number to admit
    replicas and batches against.  Numerics are untouched — outputs stay
    bit-identical to the unbounded ``toy_exe`` compile (the 50-seed
    suite asserts exactly that by comparing against ``toy_exe``'s
    engine)."""
    return compile_graph(toy_mlp_graph().graph, CompileOptions(
        assume_ranges={"batch": (1, 16), "seq": (1, 64)}))


@pytest.fixture(scope="module")
def inputs_a():
    return toy_mlp_inputs(np.random.default_rng(11), batch=3, seq=5)


@pytest.fixture(scope="module")
def inputs_b():
    return toy_mlp_inputs(np.random.default_rng(12), batch=4, seq=7)


def routed_replicas(fleet):
    """Replica names of every route event, in order."""
    return [e[6] for e in fleet.events if e[0] == "route"]


# -- routing policies ------------------------------------------------------


def test_round_robin_rotates_in_uid_order(toy_exe, inputs_a):
    scheduler, fleet = make_fleet(
        toy_exe, fleet={"replicas": 3, "policy": "round_robin"})
    for i in range(6):
        scheduler.call_at(i * 50_000.0,
                          lambda: fleet.submit("mlp", inputs_a))
    scheduler.run_until_idle()
    assert routed_replicas(fleet) == ["r0", "r1", "r2"] * 2


def test_least_outstanding_prefers_the_idle_replica(toy_exe, inputs_a):
    scheduler, fleet = make_fleet(
        toy_exe, fleet={"replicas": 2, "policy": "least_outstanding"})
    # Three back-to-back arrivals: r0 (tie broken by uid), then r1
    # (r0 now has one outstanding), then r0 again (tie at 1 apiece).
    for _ in range(3):
        scheduler.call_at(0.0, lambda: fleet.submit("mlp", inputs_a))
    scheduler.run_until_idle()
    assert routed_replicas(fleet) == ["r0", "r1", "r0"]


def test_affinity_pins_a_signature_to_one_replica(toy_exe, inputs_a):
    scheduler, fleet = make_fleet(
        toy_exe, fleet={"replicas": 4, "policy": "affinity"})
    for i in range(5):
        scheduler.call_at(i * 100_000.0,
                          lambda: fleet.submit("mlp", inputs_a))
    scheduler.run_until_idle()
    routes = routed_replicas(fleet)
    assert len(set(routes)) == 1, f"signature moved: {routes}"
    # Cold first touch, then the plan is compiled and every later
    # route is a warm affinity hit.
    assert fleet.counters["affinity_misses"] == 1
    assert fleet.counters["affinity_hits"] == 4
    assert fleet.counters["affinity_spills"] == 0


def test_affinity_mapping_is_stable_across_fleet_instances(
        toy_exe, inputs_a, inputs_b):
    placements = []
    for _ in range(2):
        scheduler, fleet = make_fleet(
            toy_exe, fleet={"replicas": 4, "policy": "affinity"})
        scheduler.call_at(0.0, lambda: fleet.submit("mlp", inputs_a))
        scheduler.call_at(0.0, lambda: fleet.submit("mlp", inputs_b))
        scheduler.run_until_idle()
        placements.append(tuple(sorted(routed_replicas(fleet))))
    assert placements[0] == placements[1]


def test_rendezvous_remaps_only_the_removed_replicas_signatures():
    class View:
        def __init__(self, uid):
            self.uid = uid
            self.name = f"r{uid}"

        def waiting(self):
            return 0

        def outstanding(self):
            return 0

        def warm(self, model, signature):
            return False

    policy = SignatureAffinityPolicy()
    replicas = [View(uid) for uid in range(4)]
    signatures = [((("batch", b), ("seq", s)),) for b in range(1, 11)
                  for s in range(1, 11)]
    before = {sig: policy.affine_replica("m", sig, replicas).name
              for sig in signatures}
    survivors = [r for r in replicas if r.name != "r2"]
    after = {sig: policy.affine_replica("m", sig, survivors).name
             for sig in signatures}
    moved = {sig for sig in signatures if before[sig] != after[sig]}
    # Exactly the signatures that lived on r2 remap; all others stay.
    assert moved == {sig for sig in signatures if before[sig] == "r2"}
    assert moved, "hash degenerated: r2 owned no signatures"


def test_affinity_spills_to_least_loaded_when_queue_is_deep(
        toy_exe, inputs_a):
    scheduler, fleet = make_fleet(
        toy_exe,
        fleet={"replicas": 3, "policy": "affinity",
               "affinity_spill_depth": 2})
    for _ in range(8):
        scheduler.call_at(0.0, lambda: fleet.submit("mlp", inputs_a))
    scheduler.run_until_idle()
    assert fleet.counters["affinity_spills"] > 0
    routes = routed_replicas(fleet)
    affine = routes[0]
    spilled = [r for r in routes if r != affine]
    assert spilled, "queue never spilled despite depth 2"
    # Spill events record both the affine owner and the overflow target.
    spill_events = [e for e in fleet.events
                    if e[0] == "route" and e[9]]
    assert all(e[8] == affine and e[6] != affine for e in spill_events)
    assert all(t.response.ok for t in fleet.tickets)


# -- tenant admission ------------------------------------------------------


def test_token_bucket_refills_on_the_clock():
    bucket = TokenBucket(rate_per_s=100.0, burst=2)
    assert bucket.try_acquire(0.0)
    assert bucket.try_acquire(0.0)
    assert not bucket.try_acquire(0.0)
    # 100/s = one token per 10ms of virtual time.
    assert bucket.try_acquire(10_000.0)
    assert not bucket.try_acquire(10_000.0)


def test_tenant_quota_sheds_then_recovers(toy_exe, inputs_a):
    scheduler, fleet = make_fleet(
        toy_exe,
        fleet={"replicas": 2, "policy": "round_robin",
               "tenant_quotas": {"metered": (100.0, 2)}})
    tickets = []
    for _ in range(3):
        scheduler.call_at(0.0, lambda: tickets.append(
            fleet.submit("mlp", inputs_a, tenant="metered")))
    scheduler.call_at(40_000.0, lambda: tickets.append(
        fleet.submit("mlp", inputs_a, tenant="metered")))
    scheduler.run_until_idle()
    statuses = [t.response.status for t in tickets]
    assert statuses == [ResponseStatus.OK, ResponseStatus.OK,
                        ResponseStatus.SHED, ResponseStatus.OK]
    shed = tickets[2]
    assert shed.done and shed.inner is None and shed.replica is None
    assert fleet.counters["tenant_shed"] == 1
    assert fleet.admission.shed == {"metered": 1}
    assert [e for e in fleet.events if e[0] == "shed"] == [
        ("shed", 0.0, 2, "metered", "mlp")]


def test_quota_exhaustion_is_per_tenant(toy_exe, inputs_a):
    scheduler, fleet = make_fleet(
        toy_exe,
        fleet={"replicas": 2, "policy": "round_robin",
               "tenant_quotas": {"noisy": (10.0, 1)}})
    tickets = []
    for _ in range(3):
        scheduler.call_at(0.0, lambda: tickets.append(
            fleet.submit("mlp", inputs_a, tenant="noisy")))
        scheduler.call_at(0.0, lambda: tickets.append(
            fleet.submit("mlp", inputs_a, tenant="quiet")))
    scheduler.run_until_idle()
    assert fleet.admission.shed.get("noisy") == 2
    assert "quiet" not in fleet.admission.shed
    assert fleet.admission.admitted["quiet"] == 3


# -- autoscaling -----------------------------------------------------------


AUTOSCALE = {
    "replicas": 1,
    "policy": "least_outstanding",
    "autoscaler": AutoscalerOptions(
        min_replicas=1, max_replicas=3, scale_up_queue_depth=2.0,
        sustain_us=5_000.0, cooldown_us=30_000.0,
        idle_retire_us=50_000.0, evaluate_every_us=2_000.0),
}


def overloaded_fleet(toy_exe, inputs_a, fleet_overrides=AUTOSCALE):
    scheduler, fleet = make_fleet(toy_exe, queue_capacity=1000,
                                  fleet=dict(fleet_overrides))
    tickets = []
    # 16ms of arrivals: the breach sustains by ~7ms, so the scaled-up
    # replica sees real traffic before the stream ends.
    for i in range(80):
        scheduler.call_at(i * 200.0, lambda: tickets.append(
            fleet.submit("mlp", inputs_a)))
    return scheduler, fleet, tickets


def test_autoscaler_scales_up_on_sustained_queue_depth(toy_exe, inputs_a):
    scheduler, fleet, tickets = overloaded_fleet(toy_exe, inputs_a)
    scheduler.run_until_idle()
    assert fleet.counters["scale_ups"] >= 1
    boots = [e for e in fleet.events
             if e[0] == "replica_up" and e[3] == "autoscale"]
    assert len(boots) == fleet.counters["scale_ups"]
    # The scaled-up replica takes real traffic.
    scaled_name = boots[0][2]
    assert scaled_name in routed_replicas(fleet)
    assert all(t.response.ok for t in tickets)


def test_autoscaler_drains_idle_replicas_back_to_minimum(
        toy_exe, inputs_a):
    scheduler, fleet, tickets = overloaded_fleet(toy_exe, inputs_a)
    scheduler.run_until_idle()
    # run_until_idle only returns once the tick loop disarmed, which
    # requires draining down to min_replicas first.
    assert len(fleet.active_replicas()) == 1
    assert fleet.counters["retires"] == fleet.counters["scale_ups"]
    for replica in fleet.retired:
        assert replica.state is ReplicaState.RETIRED
        assert replica.outstanding() == 0
    # Scale-down lost nothing: every submission resolved OK.
    assert len(tickets) == 80
    assert sum(1 for t in tickets if t.response.ok) == 80


def test_p99_breach_triggers_scale_up(toy_exe, inputs_a):
    overrides = dict(AUTOSCALE)
    overrides["autoscaler"] = AutoscalerOptions(
        min_replicas=1, max_replicas=3,
        scale_up_queue_depth=10_000.0,          # depth never breaches
        scale_up_p99_us=1_000.0, p99_window=16,
        sustain_us=5_000.0, cooldown_us=30_000.0,
        idle_retire_us=50_000.0, evaluate_every_us=2_000.0)
    scheduler, fleet, tickets = overloaded_fleet(toy_exe, inputs_a,
                                                 overrides)
    scheduler.run_until_idle()
    assert fleet.counters["scale_ups"] >= 1
    assert all(t.response.ok for t in tickets)


# -- memory budget ----------------------------------------------------------


def budget_for(executable, replicas: int, slack: float = 0.5):
    """A budget admitting exactly ``replicas`` copies of the model."""
    footprint = executable.symbolic_plan.footprint_hi_bytes(1)
    return MemoryBudget(int(footprint * (replicas + slack)))


def test_memory_budget_blocks_autoscaler_scale_up(proven_exe, inputs_a):
    """The device fits one replica; the autoscaler wants up to three.
    Every boot is refused on *proven* arithmetic, the refusals land in
    counters/events, and every request still resolves OK."""
    overrides = dict(AUTOSCALE)
    overrides["memory_budget"] = budget_for(proven_exe, replicas=1)
    scheduler, fleet, tickets = overloaded_fleet(proven_exe, inputs_a,
                                                 overrides)
    scheduler.run_until_idle()
    assert fleet.counters["scale_ups"] == 0
    assert fleet.counters["memory_blocked_scale_ups"] >= 1
    blocked = [e for e in fleet.events if e[0] == "scale_blocked_memory"]
    assert blocked and all(e[3] == 1 for e in blocked), \
        "every refusal must carry the proven replica cap"
    booted = {e[2] for e in fleet.events
              if e[0] == "replica_up" and e[3] == "autoscale"}
    assert not booted, "a replica booted past the budget"
    assert all(t.response.ok for t in tickets)


def test_memory_budget_register_fails_fast(proven_exe):
    """Three replicas cannot provably fit a two-replica budget: the
    fleet refuses the model at registration, not at first OOM."""
    with pytest.raises(ValueError, match="proven bytes"):
        make_fleet(proven_exe,
                   fleet={"replicas": 3, "policy": "round_robin",
                          "memory_budget": budget_for(proven_exe, 2)})


def test_memory_budget_stats_block(proven_exe):
    _, fleet = make_fleet(
        proven_exe,
        fleet={"replicas": 2, "policy": "round_robin",
               "memory_budget": budget_for(proven_exe, 3)})
    memory = fleet.stats()["memory"]
    footprint = proven_exe.symbolic_plan.footprint_hi_bytes(1)
    assert memory["footprint_per_replica_bytes"] == footprint
    assert memory["model_footprints"] == {"mlp": footprint}
    assert memory["replica_cap"] == 3
    assert memory["budget_bytes"] == budget_for(proven_exe, 3).usable_bytes


def test_unproven_footprint_never_silently_fits(toy_exe, inputs_a):
    """Without deployment bounds the peak is unprovable: the budget
    reports None (not "fits") and leaves scaling unconstrained."""
    scheduler, fleet = make_fleet(
        toy_exe,
        fleet={"replicas": 2, "policy": "round_robin",
               "memory_budget": MemoryBudget(1)})  # absurdly small
    scheduler.call_at(0.0, lambda: fleet.submit("mlp", inputs_a))
    scheduler.run_until_idle()
    memory = fleet.stats()["memory"]
    assert memory["footprint_per_replica_bytes"] is None
    assert memory["replica_cap"] is None
    assert fleet.counters["memory_blocked_scale_ups"] == 0


def test_manual_drain_finishes_queued_work_then_retires(
        toy_exe, inputs_a):
    scheduler, fleet = make_fleet(
        toy_exe, queue_capacity=1000,
        fleet={"replicas": 2, "policy": "round_robin"})
    tickets = []
    for _ in range(6):
        scheduler.call_at(0.0, lambda: tickets.append(
            fleet.submit("mlp", inputs_a)))
    scheduler.call_at(1_000.0, lambda: fleet.drain("r0"))
    late = []
    scheduler.call_at(500_000.0, lambda: late.append(
        fleet.submit("mlp", inputs_a)))
    scheduler.run_until_idle()
    # Everything queued on r0 before the drain still completed OK.
    assert all(t.response.ok for t in tickets)
    assert fleet.replica("r0").state is ReplicaState.RETIRED
    # Post-drain traffic never touches r0.
    assert late[0].replica == "r1"
    drain_at = next(e[1] for e in fleet.events if e[0] == "drain")
    post_drain = [e[6] for e in fleet.events
                  if e[0] == "route" and e[1] > drain_at]
    assert post_drain and "r0" not in post_drain


def test_draining_the_last_active_replica_is_refused(toy_exe):
    _, fleet = make_fleet(toy_exe, fleet={"replicas": 1})
    with pytest.raises(ValueError, match="last active"):
        fleet.drain("r0")


# -- compile pools ---------------------------------------------------------


def test_per_replica_pools_keep_quarantine_local(toy_exe, inputs_a):
    factory = lambda uid: (CompileFaultInjector(permanent=True)
                           if uid == 0 else None)
    scheduler, fleet = make_fleet(
        toy_exe, compile_fault_factory=factory,
        fleet={"replicas": 2, "policy": "round_robin"})
    tickets = []
    for i in range(4):
        scheduler.call_at(i * 100_000.0, lambda: tickets.append(
            fleet.submit("mlp", inputs_a)))
    scheduler.run_until_idle()
    r0, r1 = fleet.replica("r0"), fleet.replica("r1")
    key = ("mlp", tickets[0].response.signature)
    assert key in r0.engine.quarantined_signatures()
    assert not r1.engine.quarantined_signatures()
    # r1 compiled normally and serves the signature warm.
    assert r1.warm("mlp", key[1])
    assert not r0.warm("mlp", key[1])
    by_replica = {t.replica: t.response.path for t in tickets[-2:]}
    assert by_replica["r0"] == "quarantined"
    assert by_replica["r1"] == "fast"
    assert all(t.response.ok for t in tickets)


def test_private_pools_aggregate_by_sum(toy_exe, inputs_a, inputs_b):
    scheduler, fleet = make_fleet(
        toy_exe, fleet={"replicas": 2, "policy": "round_robin"})
    scheduler.call_at(0.0, lambda: fleet.submit("mlp", inputs_a))
    scheduler.call_at(0.0, lambda: fleet.submit("mlp", inputs_b))
    scheduler.run_until_idle()
    stats = fleet.stats()
    # Per-replica blocks carry their replica's name; the fleet
    # aggregate sums the replicas' own pools.
    assert set(stats["per_replica"]) == {"r0", "r1"}
    for name, block in stats["per_replica"].items():
        assert block["name"] == name
        assert block["pool"]["jobs_submitted"] == 1
    assert stats["pool"]["jobs_submitted"] == 2
    assert stats["requests"]["submitted"] == 2


@pytest.mark.parametrize("batching", [False, True])
def test_replicas_share_one_eager_baseline_per_model(
        toy_exe, inputs_a, monkeypatch, batching):
    from repro.serving import fallback as fallback_module
    built = []

    class CountingBaseline(fallback_module.SimulatedBaseline):
        def __init__(self, graph, device, spec):
            built.append(graph)
            super().__init__(graph, device, spec)

    monkeypatch.setattr(fallback_module, "SimulatedBaseline",
                        CountingBaseline)
    options = {"replicas": 2, "policy": "round_robin"}
    if batching:
        options["batching"] = BatchingOptions(max_batch_size=4)
    scheduler, fleet = make_fleet(toy_exe, fleet=options)
    fleet.register_model("mlp2", toy_exe)
    assert len(built) == 2
    for model in ("mlp", "mlp2"):
        assert len({id(r.engine.model(model).fallback)
                    for r in fleet.replicas()}) == 1
    # Both replicas still answer their cold requests on the fallback.
    tickets = [fleet.submit("mlp", inputs_a) for _ in range(2)]
    scheduler.run_until_idle()
    assert [t.response.path for t in tickets] == ["fallback"] * 2
    assert len({t.replica for t in tickets}) == 2


PREWARM_SHAPES = [(3, 5), (4, 7), (2, 2), (1, 9), (3, 5)]


def prewarmed_fleet(exe, **serving_overrides):
    """A 2-replica batching fleet with every solo plan and every batched
    plan (each padded bucket at batch 2 and 4) prepared on each replica,
    the way the fleet-batch benchmark pre-warms its fleet."""
    batching = BatchingOptions(max_batch_size=4)
    scheduler, fleet = make_fleet(
        exe, fleet={"replicas": 2, "batching": batching},
        **serving_overrides)
    rng = np.random.default_rng(5)
    payloads = [toy_mlp_inputs(rng, b, s) for b, s in PREWARM_SHAPES]
    for replica in fleet.replicas():
        serving = replica.engine
        engine = serving.model("mlp").engine
        solo = {engine.host_program.signature(p): p for p in payloads}
        for signature, payload in solo.items():
            engine.prepare(payload, signature)
        bucketer = serving.bucketer("mlp")
        for padded in {bucketer.padded_signature(s) for s in solo}:
            for size in (2, 4):
                engine.prepare_batched(padded, size)
    return scheduler, fleet, payloads


def test_a_fleet_freezes_each_plan_once(toy_exe, monkeypatch):
    freezes = []
    freeze = ExecutionEngine._freeze

    def counting_freeze(self, signature, dims, **kwargs):
        freezes.append((signature, kwargs.get("batch")))
        return freeze(self, signature, dims, **kwargs)

    monkeypatch.setattr(ExecutionEngine, "_freeze", counting_freeze)
    __, fleet, payloads = prewarmed_fleet(toy_exe)
    r0, r1 = (r.engine.model("mlp").engine for r in fleet.replicas())
    solo = {r0.host_program.signature(p) for p in payloads}
    padded = {fleet.replicas()[0].engine.bucketer("mlp").padded_signature(s)
              for s in solo}
    assert sorted(freezes, key=repr) == sorted(
        [(s, None) for s in solo]
        + [(p, size) for p in padded for size in (2, 4)], key=repr)
    # Both replicas hold the one frozen object in their own caches.
    for signature in solo:
        assert r0.peek_plan(signature) is r1.peek_plan(signature)
    for signature in padded:
        assert r0.peek_batched(signature, 4) is \
            r1.peek_batched(signature, 4)


def test_shared_plans_keep_each_replicas_cache_stats(toy_exe, monkeypatch):
    def serve(fleet, scheduler, payloads):
        tickets = [fleet.submit("mlp", p) for p in payloads * 3]
        scheduler.run_until_idle()
        return ([t.response.outputs for t in tickets],
                [t.response.stats for t in tickets],
                [r.engine.model("mlp").engine.plans.stats()
                 for r in fleet.replicas()])

    scheduler, fleet, payloads = prewarmed_fleet(toy_exe)
    shared = serve(fleet, scheduler, payloads)
    from repro.serving import fleet as fleet_module
    monkeypatch.setattr(fleet_module, "SharedPlans",
                        lambda executable: None)
    scheduler, fleet, payloads = prewarmed_fleet(toy_exe)
    assert fleet.replicas()[0].engine.model("mlp").engine.shared_plans \
        is None
    alone = serve(fleet, scheduler, payloads)
    assert shared[2] == alone[2]
    assert shared[1] == alone[1]
    assert all(bit_identical(a, b) for a, b in zip(shared[0], alone[0]))


def test_a_plan_every_cache_evicted_is_collectable(toy_exe, inputs_a,
                                                   inputs_b):
    import gc
    import weakref
    scheduler, fleet = make_fleet(
        toy_exe, fleet={"replicas": 2},
        engine=EngineOptions(plan_capacity=1))
    engines = [r.engine.model("mlp").engine for r in fleet.replicas()]
    for engine in engines:
        engine.prepare(inputs_a)
    plan = weakref.ref(engines[0].peek_plan(
        engines[0].host_program.signature(inputs_a)))
    engines[0].prepare(inputs_b)
    gc.collect()
    assert plan() is not None          # replica r1 still caches it
    engines[1].prepare(inputs_b)
    gc.collect()
    assert plan() is None
    assert len(engines[0].shared_plans) == 1


@pytest.mark.parametrize("batching", [False, True])
def test_every_replica_kind_receives_its_tuner_faults(toy_exe, inputs_a,
                                                      batching):
    """The per-replica tuner-fault schedule reaches batching replicas
    too: the search faults and is quarantined, the signature still
    compiles (heuristic plan) and serves."""
    scheduler, fleet = make_fleet(
        toy_exe, tuning=TuningOptions(budget_us=50_000.0),
        fleet={"replicas": 1,
               "batching": BatchingOptions() if batching else None},
        tuning_fault_factory=lambda uid: TunerFaultInjector())
    ticket = fleet.submit("mlp", inputs_a)
    scheduler.run_until_idle()
    serving = fleet.replica("r0").engine
    assert ticket.response.ok
    assert serving.counters["tuning_faults"] == 1
    assert serving.counters["tuned_signatures"] == 0
    assert serving.tuning_quarantined_signatures() == {
        ("mlp", ticket.request.signature)}


# -- observability ---------------------------------------------------------


def test_fleet_emits_spans_and_per_replica_metrics(toy_exe, inputs_a):
    clock = VirtualClock()
    metrics = MetricsRegistry()
    scheduler = VirtualScheduler(seed=0, clock=clock)
    tracer = Tracer(clock=clock, metrics=metrics)
    fleet = FleetEngine(
        A10, scheduler,
        FleetOptions(replicas=2, policy="round_robin",
                     serving=ServingOptions(compile_cost=FAST_COMPILE)),
        tracer=tracer)
    fleet.register_model("mlp", toy_exe)
    for _ in range(4):
        scheduler.call_at(0.0, lambda: fleet.submit("mlp", inputs_a))
    scheduler.run_until_idle()
    snapshot = metrics.snapshot()["counters"]
    assert snapshot["fleet.routed"] == 4
    assert snapshot["fleet.routed.replica.r0"] == 2
    assert snapshot["fleet.routed.replica.r1"] == 2
    assert snapshot["events.fleet:route"] == 4
    assert snapshot["events.fleet:replica_up"] == 2


# -- ClusterSim: deterministic whole-cluster replay ------------------------


SEEDS = list(range(50))

SHAPES = [(3, 5), (3, 5), (4, 7), (3, 5), (2, 2), (4, 7), (3, 5), (2, 2)]


@pytest.fixture(scope="module")
def inputs_by_shape():
    rng = np.random.default_rng(99)
    return {(b, s): toy_mlp_inputs(rng, b, s) for b, s in set(SHAPES)}


@pytest.fixture(scope="module")
def expected_by_shape(toy_exe, inputs_by_shape):
    engine = ExecutionEngine(toy_exe, A10)
    return {shape: engine.run(inputs)[0]
            for shape, inputs in inputs_by_shape.items()}


def fleet_sim(exe, seed):
    def faults(sim_seed):
        # Replica r0 carries the fault schedule; the rest stay clean.
        return lambda uid: (
            CompileFaultInjector(transient_attempts=1, permanent_every=3)
            if uid == 0 else None)

    # When the peak is proven, run the cluster under a budget that
    # admits exactly the three base replicas — the memory accounting
    # then participates in every seed's invariant and replay checks.
    budget = None
    symbolic = exe.symbolic_plan
    if symbolic is not None and symbolic.proven:
        budget = budget_for(exe, replicas=3)
    return ClusterSim(
        A10, {"mlp": exe},
        FleetOptions(replicas=3, policy="affinity",
                     memory_budget=budget,
                     serving=ServingOptions(compile_cost=FAST_COMPILE,
                                            queue_capacity=16,
                                            compile_backoff_us=2_000.0)),
        seed=seed, compile_fault_factory=faults)


def scenario_arrivals(inputs_by_shape):
    arrivals = []
    # Three simultaneous arrivals (seed permutes their order), a
    # mid-flight wave, one tight deadline, then a warm wave.
    for shape in SHAPES[:3]:
        arrivals.append(Arrival(0.0, "alpha", "mlp",
                                inputs_by_shape[shape]))
    for shape in SHAPES[3:6]:
        arrivals.append(Arrival(400.0, "beta", "mlp",
                                inputs_by_shape[shape]))
    arrivals.append(Arrival(500.0, "alpha", "mlp",
                            inputs_by_shape[(3, 5)], deadline_us=80.0))
    for shape in SHAPES[6:]:
        arrivals.append(Arrival(90_000.0, "alpha", "mlp",
                                inputs_by_shape[shape]))
    return arrivals


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_upholds_all_fleet_invariants(proven_exe, seed,
                                           inputs_by_shape,
                                           expected_by_shape):
    run = fleet_sim(proven_exe, seed).run(
        scenario_arrivals(inputs_by_shape),
        drains=[(50_000.0, "r1")])
    tickets = run.tickets
    assert len(tickets) == 9, "a request was lost"
    ok = 0
    for ticket in tickets:
        response = ticket.response
        assert response is not None, "request fell through the cracks"
        assert response.status in (ResponseStatus.OK,
                                   ResponseStatus.TIMEOUT,
                                   ResponseStatus.SHED)
        if response.ok:
            ok += 1
            shape = next(s for s, inputs in inputs_by_shape.items()
                         if inputs is ticket.request.inputs)
            assert bit_identical(expected_by_shape[shape],
                                 response.outputs), \
                f"seed {seed}: {response.path} diverged on {shape}"
    # No double service: fleet-wide responses equal submissions.
    counters = run.fleet.stats()["requests"]
    assert counters["submitted"] == 9
    assert counters["ok"] == ok
    assert counters["ok"] + counters["timeouts"] + counters["shed"] == 9
    # Fault schedules are per replica: only r0 can quarantine.
    for replica in run.fleet.replicas() + run.fleet.retired:
        if replica.name != "r0":
            assert not replica.engine.quarantined_signatures()
    # The drained replica finished everything before retiring.
    drained = run.fleet.replica("r1")
    assert drained.state is ReplicaState.RETIRED
    assert drained.outstanding() == 0
    # Memory accounting holds on every seed: the proven footprint
    # admits exactly the base fleet, nothing was blocked, and the
    # snapshot is identical whichever interleaving played out.
    memory = run.fleet.stats()["memory"]
    assert memory["replica_cap"] == 3
    assert memory["footprint_per_replica_bytes"] == \
        memory["model_footprints"]["mlp"] > 0
    assert run.fleet.counters["memory_blocked_scale_ups"] == 0


@pytest.mark.parametrize("seed", [0, 17, 43])
def test_same_seed_replays_the_exact_transcript(proven_exe, seed,
                                                inputs_by_shape):
    sim = fleet_sim(proven_exe, seed)
    arrivals = scenario_arrivals(inputs_by_shape)
    first = sim.run(arrivals, drains=[(50_000.0, "r1")])
    second = sim.run(arrivals, drains=[(50_000.0, "r1")])
    assert first.transcript == second.transcript


def test_seeds_explore_distinct_cluster_interleavings(proven_exe,
                                                      inputs_by_shape):
    arrivals = scenario_arrivals(inputs_by_shape)
    transcripts = {fleet_sim(proven_exe, seed).run(arrivals).transcript
                   for seed in SEEDS[:10]}
    assert len(transcripts) > 1, \
        "50-seed sweep is vacuous: every seed produced one interleaving"


def test_poisson_traffic_replays_bit_for_bit(proven_exe, inputs_by_shape):
    pool = list(inputs_by_shape.values())
    traffic = [TenantTraffic("alpha", "mlp", rate_qps=600.0,
                             num_requests=20, inputs=pool),
               TenantTraffic("beta", "mlp", rate_qps=200.0,
                             num_requests=8, inputs=pool[:2])]
    arrivals = poisson_arrivals(traffic, seed=5)
    assert arrivals == poisson_arrivals(traffic, seed=5)
    assert arrivals != poisson_arrivals(traffic, seed=6)
    sim = fleet_sim(proven_exe, 5)
    assert sim.run(arrivals).transcript == sim.run(arrivals).transcript
