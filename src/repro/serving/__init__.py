"""Concurrent serving runtime over the compiled stack.

The paper's serving claim — compile-once dynamic-shape execution stays
flat under shape-diverse traffic while per-shape JITs stall behind the
request queue — needs a *runtime*, not just the offline E14 simulation.
This package provides it:

- :class:`ServingEngine` — request intake, admission control, deadline
  timers, and per-request path selection (warm launch-plan replay /
  compile-once cold record, the default / the per-shape-JIT baseline's
  eager fallback and synchronous compile);
- :class:`BatchingServingEngine` — dynamic batching over
  constraint-compatible shape buckets (pad within a bucket, never
  across; one batched launch plan per bucket; bit-identical unbatching);
- :class:`BackgroundCompilePool` — deduplicated, coalescing, bounded
  background jobs (tuning; per-shape compiles under the baseline) with
  retry-backoff and quarantine;
- :class:`EagerFallback` — serves the compiled host program's outputs
  at the PyTorch baseline's eager cost;
- :class:`FleetEngine` — N replicas per model behind pluggable routing
  (signature affinity / round robin / least outstanding), per-replica
  compile pools, and drain-then-retire scale-down (internals.md §15);
- :class:`ClusterSim` — the deterministic cluster-simulation fixture:
  arrival traces in, bit-for-bit replayable per-event transcripts out;
- :class:`VirtualScheduler` / :class:`VirtualClock` — the injectable
  time seam that makes every interleaving deterministic and seedable.

See internals.md §10 for the architecture and tests/serving for the
deterministic concurrency suite.
"""

from .batching import (BatchingOptions, BatchingServingEngine,
                       ShapeBucketer)
from .clock import Clock, SystemClock, VirtualClock
from .cluster import Arrival, ClusterRun, ClusterSim
from .compilepool import (BackgroundCompilePool, CompileState,
                          PermanentCompileError, SignatureCompileCost,
                          TransientCompileError)
from .engine import (PathRouter, Request, Response, ResponseStatus,
                     ServingEngine, ServingOptions, Ticket)
from .fallback import EagerFallback
from .fleet import FleetEngine, FleetOptions, FleetTicket, ReplicaState
from .router import (LeastOutstandingPolicy, RoundRobinPolicy,
                     RouteDecision, RoutingPolicy, SignatureAffinityPolicy,
                     make_policy, stable_hash)
from .scheduler import EventHandle, VirtualScheduler

__all__ = [
    "Arrival",
    "BackgroundCompilePool",
    "BatchingOptions",
    "BatchingServingEngine",
    "Clock",
    "ClusterRun",
    "ClusterSim",
    "CompileState",
    "EagerFallback",
    "EventHandle",
    "FleetEngine",
    "FleetOptions",
    "FleetTicket",
    "LeastOutstandingPolicy",
    "PathRouter",
    "PermanentCompileError",
    "ReplicaState",
    "Request",
    "Response",
    "ResponseStatus",
    "RoundRobinPolicy",
    "RouteDecision",
    "RoutingPolicy",
    "ServingEngine",
    "ServingOptions",
    "ShapeBucketer",
    "SignatureAffinityPolicy",
    "SignatureCompileCost",
    "SystemClock",
    "Ticket",
    "TransientCompileError",
    "VirtualClock",
    "VirtualScheduler",
    "make_policy",
    "stable_hash",
]
