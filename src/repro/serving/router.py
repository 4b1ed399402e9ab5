"""Fleet routing policies.

The fleet splits *placement* from *execution*: a :class:`RoutingPolicy`
picks which replica serves a request.  A policy is a deterministic
function of its inputs, so whole-cluster interleavings replay
bit-for-bit under the virtual clock.

Three policies ship (see internals.md §15):

- **signature affinity** — the fleet-level analogue of the paper's
  shape-specialization caching.  A request is cheap only on a replica
  whose launch-plan cache already holds its signature class, so
  signatures are pinned to replicas by rendezvous (highest-random-weight)
  hashing: each replica scores ``blake2b(replica_uid | model | signature)``
  and the highest score wins.  Adding or retiring a replica remaps only
  the signatures that hashed to it — every other replica keeps its warm
  cache.  When the affine replica's queue is deeper than
  ``spill_depth``, the request spills to the least-loaded replica
  (freshness is worth less than a queue's worth of waiting).
  Batching replicas batch buckets, not signatures, so there the policy
  places by batch instead: a request joins the replica where the most
  members of its bucket are already forming (unless that replica waits
  ``spill_depth`` deep), and a request that opens a new batch goes to
  the least-outstanding replica holding its plan.
- **round robin** — the classic baseline: rotate over active replicas,
  blind to caches and load.
- **least outstanding** — route to the replica with the fewest
  unresolved requests, blind to caches.

Hashing never uses Python's ``hash()`` (randomized per process by
``PYTHONHASHSEED``); :func:`stable_hash` is blake2b over the rendered
key, identical across runs, processes, and platforms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol, Sequence

from ..runtime.launchplan import format_signature

__all__ = ["LeastOutstandingPolicy", "POLICIES", "ReplicaView",
           "RouteDecision", "RoundRobinPolicy", "RoutingPolicy",
           "SignatureAffinityPolicy", "make_policy", "stable_hash"]


def stable_hash(text: str) -> int:
    """A process-stable 64-bit hash of ``text`` (blake2b, not hash())."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class ReplicaView(Protocol):
    """What a policy may observe about a replica (fleet's ``_Replica``)."""

    name: str
    uid: int

    def waiting(self) -> int: ...        # queued, not yet in service
    def outstanding(self) -> int: ...    # submitted, not yet responded
    def warm(self, model: str, signature: tuple) -> bool: ...
    #: members the request would batch with (None: does not batch).
    def forming(self, model: str, signature: tuple) -> int | None: ...


@dataclass(frozen=True)
class RouteDecision:
    """One routing verdict, recorded verbatim in fleet transcripts."""

    replica: str
    policy: str
    #: affinity only: the replica rendezvous hashing picked first, or,
    #: on batching replicas, the one where the request's batch was
    #: forming (None when it opened a new batch).
    affine: str | None = None
    #: True when the affine replica was over ``spill_depth`` and the
    #: request went elsewhere instead.
    spilled: bool = False
    #: True when the chosen replica already held the signature's plan
    #: (filled in by the fleet, whatever the policy).
    warm: bool = False


class RoutingPolicy:
    """Chooses a replica for one request; must be deterministic."""

    name = "base"

    def choose(self, model: str, signature: tuple,
               replicas: Sequence[ReplicaView]) -> RouteDecision:
        raise NotImplementedError


def _least_outstanding(replicas: Sequence[ReplicaView]) -> ReplicaView:
    """Fewest unresolved requests; ties broken by lowest uid."""
    return min(replicas, key=lambda r: (r.outstanding(), r.uid))


class RoundRobinPolicy(RoutingPolicy):
    """Rotate over active replicas, per model, blind to caches."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next: dict[str, int] = {}

    def choose(self, model: str, signature: tuple,
               replicas: Sequence[ReplicaView]) -> RouteDecision:
        turn = self._next.get(model, 0)
        self._next[model] = turn + 1
        ordered = sorted(replicas, key=lambda r: r.uid)
        replica = ordered[turn % len(ordered)]
        return RouteDecision(replica=replica.name, policy=self.name)


class LeastOutstandingPolicy(RoutingPolicy):
    """Route to the replica with the fewest unresolved requests."""

    name = "least_outstanding"

    def choose(self, model: str, signature: tuple,
               replicas: Sequence[ReplicaView]) -> RouteDecision:
        replica = _least_outstanding(replicas)
        return RouteDecision(replica=replica.name, policy=self.name)


class SignatureAffinityPolicy(RoutingPolicy):
    """Rendezvous-hash signatures to replicas; spill when overloaded.

    On batching replicas a request is placed by its batch instead: it
    joins the replica with the most members of its bucket forming whose
    ``waiting()`` is below ``spill_depth`` (ties to the lowest uid);
    otherwise it opens a batch on the least-outstanding replica that
    holds its plan, or of all replicas when none does.  Every replica
    holds every plan the fleet froze, so hashing there would only split
    buckets across replicas and serve their members solo.
    """

    name = "affinity"

    def __init__(self, spill_depth: int = 8) -> None:
        if spill_depth < 1:
            raise ValueError("spill_depth must be >= 1")
        self.spill_depth = spill_depth

    def score(self, replica: ReplicaView, model: str,
              signature: tuple) -> int:
        return stable_hash(
            f"{replica.uid}|{model}|{format_signature(signature)}")

    def affine_replica(self, model: str, signature: tuple,
                       replicas: Sequence[ReplicaView]) -> ReplicaView:
        return max(replicas,
                   key=lambda r: (self.score(r, model, signature), r.uid))

    def choose(self, model: str, signature: tuple,
               replicas: Sequence[ReplicaView]) -> RouteDecision:
        forming = [(r.forming(model, signature), r) for r in replicas]
        if all(count is not None for count, _ in forming):
            return self._place_batch(model, signature, replicas, forming)
        affine = self.affine_replica(model, signature, replicas)
        if len(replicas) > 1 and affine.waiting() >= self.spill_depth:
            spill = _least_outstanding(
                [r for r in replicas if r is not affine])
            return RouteDecision(
                replica=spill.name, policy=self.name, affine=affine.name,
                spilled=True)
        return RouteDecision(
            replica=affine.name, policy=self.name, affine=affine.name)

    def _place_batch(self, model: str, signature: tuple,
                     replicas: Sequence[ReplicaView],
                     forming: list) -> RouteDecision:
        forming = [(count, r) for count, r in forming if count]
        joinable = [(count, r) for count, r in forming
                    if r.waiting() < self.spill_depth]
        if joinable:
            home = _most_forming(joinable)
            return RouteDecision(replica=home.name, policy=self.name,
                                 affine=home.name)
        warm = [r for r in replicas if r.warm(model, signature)]
        target = _least_outstanding(warm or replicas)
        affine = _most_forming(forming).name if forming else None
        return RouteDecision(
            replica=target.name, policy=self.name, affine=affine,
            spilled=affine is not None and affine != target.name)


def _most_forming(forming: list) -> ReplicaView:
    """The replica with the most members forming; ties to lowest uid."""
    return max(forming, key=lambda item: (item[0], -item[1].uid))[1]


POLICIES = {
    "affinity": SignatureAffinityPolicy,
    "round_robin": RoundRobinPolicy,
    "least_outstanding": LeastOutstandingPolicy,
}


def make_policy(name: str, **kwargs) -> RoutingPolicy:
    """Instantiate a registered policy by name."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown routing policy {name!r}; "
                         f"available: {sorted(POLICIES)}") from None
    return factory(**kwargs)

