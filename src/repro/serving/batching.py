"""Dynamic batching over constraint-compatible shape signatures.

The paper's headline workload — variable-sequence-length transformer
traffic — batches badly under naive padding: pad every request to the
global maximum and most of the device time is waste.  The shape
constraint store bounds that waste the BladeDISC++ way: it knows which
parameter dims are provably equal (one union-find class per group), so

- **bucketing** — requests whose per-class values round to the same
  power-of-two ceiling share a bucket; requests in different buckets
  never pad each other.
- **padding** — a bucket's members are padded per *class*, to the
  bucket's ceiling, never per raw dim: dims the store proves equal stay
  equal after padding, so the padded signature still binds.
- **batch formation** — a bucket flushes when it reaches
  ``max_batch_size`` or ``max_queue_delay_us`` after its first member,
  whichever comes first, all on the injectable
  :class:`~repro.serving.scheduler.VirtualScheduler` — every
  interleaving is seeded and replayable.
- **one launch plan per bucket** — a flushed batch replays one frozen
  :class:`~repro.runtime.launchplan.LaunchPlan` keyed on the padded
  signature with a leading (rounded) batch dim; a cold batched plan
  never stalls anyone: the batch *explodes* back into solo requests
  served immediately while the batched plan compiles in the background.
- **bit-identical unbatching** — members execute against their true
  dims (padding is a cost concept, not a numeric one), so every batched
  response equals a direct solo :class:`ExecutionEngine` run, enforced
  by the property/fuzz oracles in ``tests/serving`` and
  ``python -m repro.fuzz --batching``.

Admission stays strictly per request and *precedes* bucket placement:
shed happens in ``submit`` before a bucket is chosen, and a deadline
that expires while its bucket waits on the flush timer times the
request out of the bucket (it never occupies a batch slot).

See internals.md §12 for the bucketing rules and plan keying.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.symbolic.analysis import ConstraintLevel, analyze_shapes
from ..device.profiles import DeviceProfile
from ..runtime.caches import round_up_pow2
from ..runtime.launchplan import format_signature
from .engine import Request, ServingEngine, ServingOptions
from .scheduler import VirtualScheduler

__all__ = ["BatchingOptions", "BatchingServingEngine", "ShapeBucketer"]


@dataclass
class BatchingOptions:
    """Policy knobs of the dynamic batcher."""

    #: a bucket flushes as soon as it holds this many members.
    max_batch_size: int = 8
    #: ... or this long after its first member arrived, whichever first.
    max_queue_delay_us: float = 2_000.0
    #: when set, batch sizes are additionally capped by what the
    #: model's *proven* class-wide peak (``runtime.symplan``) fits into
    #: the budget, and pad ceilings stop exceeding each class's proven
    #: maximum.  Models whose peak cannot be proven keep the configured
    #: limits — "cannot prove" never silently admits anything.
    memory_budget: object | None = None


class ShapeBucketer:
    """Maps request signatures to pad-compatible buckets for one model.

    Built once per registered model from the shape-constraint store:
    every symbolic parameter dim is folded to its constraint *class*
    (dims the store proves always-equal share one class), so a bucket
    pads per class — provably-equal dims stay equal after padding and
    the padded signature still binds — while unrelated dims never pad
    each other.  Static dims (including symbols the store resolves to a
    class constant) take no part in bucketing.
    """

    def __init__(self, graph, params, class_caps: tuple | None = None) -> None:
        #: per bucketing slot, an optional proven class maximum (from
        #: ``MemoryBudget.bucket_caps``); ``None`` entries leave the
        #: stock ceiling schedule untouched.  Assignable after
        #: construction — the caps are derived from :meth:`class_symbols`.
        self.class_caps = tuple(class_caps) if class_caps else None
        #: the shape-constraint store the classes were derived from;
        #: the L604 lint audit reuses it for provenance.
        self.store = analyze_shapes(graph, ConstraintLevel.FULL).store
        store = self.store
        sym_class: dict[str, int] = {}
        class_members: dict[int, set] = {}
        for index, members in enumerate(store.dim_classes()):
            for key in members:
                if isinstance(key, str):
                    sym_class[key] = index
                    class_members.setdefault(index, set()).add(key)
        slot_index: dict = {}
        #: per param: (name, entries); an entry is either a static int
        #: or ``("class", slot)`` indexing :attr:`num_classes` values.
        self._param_axes: list[tuple] = []
        for param in params:
            entries: list = []
            for dim in param.shape:
                resolved = store.resolve_dim(dim)
                if isinstance(resolved, int):
                    entries.append(int(resolved))
                    continue
                group = ("class", sym_class.get(resolved.name))
                if group[1] is None:
                    group = ("sym", resolved.name)
                slot = slot_index.setdefault(group, len(slot_index))
                entries.append(("class", slot))
            self._param_axes.append(
                (param.attrs["param_name"], tuple(entries)))
        self.num_classes = len(slot_index)
        #: per bucketing slot: the symbol names the slot pads for.
        self._slot_symbols: list[set] = [
            set() for __ in range(self.num_classes)]
        for group, slot in slot_index.items():
            kind, key = group
            self._slot_symbols[slot] = set(class_members[key]) \
                if kind == "class" else {key}

    def class_symbols(self) -> list[set]:
        """Per bucketing slot, the symbol names it pads for.

        The L604 analyzer intersects these symbols' intervals to get
        each class's proven value range, then audits :meth:`ceiling`
        over it.
        """
        return [set(symbols) for symbols in self._slot_symbols]

    def ceiling(self, value: int) -> int:
        """The pad ceiling for one class value — THE soundness seam.

        Everything the batcher freezes per bucket (the key, the padded
        signature, hence the launch plan) goes through this one method,
        so the L604 audit of ``ceiling`` over each class's interval
        covers every padding decision the engine can make.  Subclasses
        overriding the schedule inherit the audit for free.
        """
        return round_up_pow2(value)

    def class_ceiling(self, slot: int, value: int) -> int:
        """The *effective* ceiling for one bucketing slot: the
        :meth:`ceiling` schedule, clamped to the slot's proven class
        maximum when a memory budget supplied one.

        The clamp stays sound for every in-class value: a member can
        never exceed its own class's proven maximum, so the clamped
        ceiling still dominates it — while padding past the proven
        range (pow2 jumping 12 -> 16 when the class tops out at 12)
        stops burning budget on bytes no request can need.  The L604
        audit drives this method, so budget-capped schedules inherit
        the truncation/waste checks.
        """
        ceiling = self.ceiling(value)
        caps = self.class_caps
        if caps and slot < len(caps) and caps[slot] is not None:
            ceiling = max(int(value), min(ceiling, int(caps[slot])))
        return ceiling

    def class_values(self, signature: tuple) -> tuple:
        """Concrete value of each constraint class in ``signature``."""
        values: list = [None] * self.num_classes
        shapes = {name: shape for name, shape in signature}
        for name, entries in self._param_axes:
            shape = shapes[name]
            for value, entry in zip(shape, entries):
                if not isinstance(entry, int):
                    values[entry[1]] = int(value)
        return tuple(values)

    def bucket_key(self, signature: tuple) -> tuple:
        """Requests with equal keys co-batch; others never pad each
        other."""
        values = self.class_values(signature)
        return tuple(self.class_ceiling(slot, v)
                     for slot, v in enumerate(values))

    def padded_signature(self, signature: tuple) -> tuple:
        """The bucket-ceiling signature ``signature`` is padded to.

        Every member of a bucket maps to the *same* padded signature (it
        is a function of the bucket key), so a bucket's launch plans
        converge to one key per batch size instead of one per member
        mix.
        """
        padded = self.bucket_key(signature)
        return tuple(
            (name, tuple(entry if isinstance(entry, int)
                         else padded[entry[1]] for entry in entries))
            for name, entries in self._param_axes)

    def elements(self, signature: tuple) -> int:
        """Total input elements a signature carries (waste accounting)."""
        total = 0
        for __, shape in signature:
            n = 1
            for d in shape:
                n *= int(d)
            total += n
        return total

    def padding_waste(self, signature: tuple) -> float:
        """Fraction of the padded input elements that are padding."""
        padded = self.elements(self.padded_signature(signature))
        if padded == 0:
            return 0.0
        return 1.0 - self.elements(signature) / padded


class _Bucket:
    """Requests waiting to co-batch: one per (model, bucket key)."""

    __slots__ = ("key", "model", "members", "flush_handle", "opened_us")

    def __init__(self, key, model: str, opened_us: float) -> None:
        self.key = key
        self.model = model
        self.members: list[Request] = []
        self.flush_handle = None
        self.opened_us = opened_us


class _Batch:
    """A formed batch: one work item on the device-server queue.

    While it waits for the server, later arrivals with the same bucket
    key *join* it (up to ``max_batch_size``) instead of opening a fresh
    bucket — under load the launch leaves as full as the traffic allows,
    which is where the throughput of dynamic batching comes from.
    """

    __slots__ = ("key", "model", "members", "padded", "formed_us")

    def __init__(self, key, model: str, members: list, padded: tuple,
                 formed_us: float) -> None:
        self.key = key
        self.model = model
        self.members = members
        self.padded = padded
        self.formed_us = formed_us


class BatchingServingEngine(ServingEngine):
    """A :class:`ServingEngine` with a dynamic batcher before the server.

    Admission (shed + deadline) is inherited unchanged and runs per
    request *before* bucket placement; ``_enqueue`` routes admitted
    requests into shape buckets instead of the raw queue, and
    ``_begin_service`` lowers each flushed bucket to a single batched
    launch-plan replay.  A batch whose plan is cold explodes back into
    solo requests (served on the usual fast/fallback paths right away)
    while the batched plan compiles in the background; a quarantined
    batched key pins the bucket to solo service forever.  Lone flushes
    are served solo — a single-request stream behaves exactly like the
    unbatched engine.
    """

    PATH_COUNTERS = dict(ServingEngine.PATH_COUNTERS,
                         batched="batched_served")

    def __init__(self, device: DeviceProfile,
                 scheduler: VirtualScheduler,
                 options: ServingOptions | None = None,
                 batching: BatchingOptions | None = None,
                 compile_fault=None, tuning_fault=None, tracer=None, *,
                 name: str = "serving") -> None:
        super().__init__(device, scheduler, options,
                         compile_fault=compile_fault,
                         tuning_fault=tuning_fault, tracer=tracer,
                         name=name)
        self.batching = batching or BatchingOptions()
        if self.batching.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._bucketers: dict[str, ShapeBucketer] = {}
        #: model -> proven batch cap from the memory budget (None =
        #: unconstrained or unprovable; the configured limit applies).
        self._batch_caps: dict[str, int | None] = {}
        self._buckets: dict[tuple, _Bucket] = {}
        #: request id -> ("bucket", _Bucket) | ("batch", _Batch); only
        #: requests currently held by the batcher appear here.
        self._member_state: dict[int, tuple] = {}
        self.counters.update({
            "batched_served": 0,
            "batches_formed": 0,
            "batches_exploded": 0,
        })

    # -- registration ------------------------------------------------------

    def register_model(self, name, model, compile_options=None, *,
                       fallback=None, shared_plans=None):
        entry = super().register_model(name, model, compile_options,
                                       fallback=fallback,
                                       shared_plans=shared_plans)
        bucketer = ShapeBucketer(
            entry.executable.graph, entry.engine.host_program.params)
        budget = self.batching.memory_budget
        symbolic = entry.executable.symbolic_plan
        cap: int | None = None
        if budget is not None:
            bucketer.class_caps = tuple(
                budget.bucket_caps(symbolic, bucketer))
            cap = budget.max_batch_size(
                symbolic, limit=self.batching.max_batch_size)
            if cap is not None and cap < 1:
                raise ValueError(
                    f"model {name!r}: proven class-wide peak "
                    f"{symbolic.footprint_hi_bytes()} bytes does not "
                    f"fit the memory budget "
                    f"({budget.usable_bytes} usable) at batch size 1")
        self._bucketers[name] = bucketer
        self._batch_caps[name] = cap
        return entry

    def bucketer(self, name: str) -> ShapeBucketer:
        return self._bucketers[name]

    def max_batch_for(self, model: str) -> int:
        """The effective batch limit for one model: the configured
        ``max_batch_size``, tightened by the memory budget's proven cap
        when one exists."""
        cap = self._batch_caps.get(model)
        if cap is None:
            return self.batching.max_batch_size
        return min(self.batching.max_batch_size, cap)

    # -- admission seam ----------------------------------------------------

    def _waiting(self) -> int:
        """Waiting = queued solo requests + queued batch members +
        bucketed members; the shed bound covers them all."""
        waiting = 0
        for item in self._queue:
            waiting += len(item.members) if isinstance(item, _Batch) \
                else 1
        for bucket in self._buckets.values():
            waiting += len(bucket.members)
        return waiting

    def forming(self, model: str, signature: tuple) -> int:
        """Members a request of ``signature`` would batch with here: in
        a queued same-bucket batch with room, else in the open bucket
        (0 when it would open a new one).  The fleet places batching
        traffic by this."""
        key = (model, self._bucketers[model].bucket_key(signature))
        batch = self._joinable_batch(key)
        if batch is not None:
            return len(batch.members)
        bucket = self._buckets.get(key)
        return len(bucket.members) if bucket is not None else 0

    def _enqueue(self, request: Request) -> None:
        """Admitted requests enter a shape bucket, not the raw queue."""
        bucketer = self._bucketers[request.model]
        key = (request.model, bucketer.bucket_key(request.signature))
        if self._join_queued_batch(request, key):
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            now = self.scheduler.now_us()
            bucket = _Bucket(key, request.model, opened_us=now)
            self._buckets[key] = bucket
            bucket.flush_handle = self.scheduler.call_at(
                now + self.batching.max_queue_delay_us,
                lambda: self._flush(bucket))
        bucket.members.append(request)
        self._member_state[request.id] = ("bucket", bucket)
        if self.tracer.enabled:
            self.tracer.event(
                "batch:enqueue", parent=request.span,
                bucket=str(bucket.key[1]), size=len(bucket.members))
        if len(bucket.members) >= self.max_batch_for(request.model):
            self._flush(bucket)

    def _joinable_batch(self, key: tuple) -> _Batch | None:
        """The first queued batch of ``key`` that still has room."""
        for item in self._queue:
            if isinstance(item, _Batch) and item.key == key and \
                    len(item.members) < self.max_batch_for(item.model):
                return item
        return None

    def _join_queued_batch(self, request: Request, key: tuple) -> bool:
        """Absorb ``request`` into a same-bucket batch still waiting in
        the queue, if one has room.  The batch is already behind the
        busy server, so joining adds no latency to anyone — it only
        fills otherwise-padded slots of the coming launch."""
        batch = self._joinable_batch(key)
        if batch is None:
            return False
        batch.members.append(request)
        self._member_state[request.id] = ("batch", batch)
        if self.tracer.enabled:
            self.tracer.event(
                "batch:join", parent=request.span,
                bucket=str(key[1]), size=len(batch.members))
        return True

    # -- batch formation ---------------------------------------------------

    def _flush(self, bucket: _Bucket) -> None:
        """Form a batch from ``bucket`` (or serve a lone member solo)."""
        if self._buckets.get(bucket.key) is bucket:
            del self._buckets[bucket.key]
        if bucket.flush_handle is not None:
            bucket.flush_handle.cancel()
            bucket.flush_handle = None
        for request in bucket.members:
            self._member_state.pop(request.id, None)
        members = [r for r in bucket.members if not r.done]
        if not members:
            return
        if len(members) == 1:
            # A lone member takes the solo path: a single-request
            # stream is indistinguishable from the unbatched engine.
            super()._enqueue(members[0])
            return
        bucketer = self._bucketers[bucket.model]
        now = self.scheduler.now_us()
        batch = _Batch(bucket.key, bucket.model, members,
                       bucketer.padded_signature(members[0].signature),
                       formed_us=now)
        for request in members:
            self._member_state[request.id] = ("batch", batch)
        self.counters["batches_formed"] += 1
        if self.tracer.enabled:
            self.tracer.event(
                "batch:flush", bucket=str(bucket.key[1]),
                size=len(members),
                padded=format_signature(batch.padded),
                waited_us=now - bucket.opened_us)
        self._queue.append(batch)
        if self._current is None:
            self._dispatch_next()

    def _batch_dim(self, live_members: int, model: str) -> int:
        """The batch dim a launch is charged for: ``live_members``
        rounded up to a power of two (empty slots are cost, not members)
        so launch plans converge to a handful of keys.  The padded dim
        is charged for real, so it is clamped back to the model's
        budgeted limit (never below the live member count)."""
        return min(round_up_pow2(live_members),
                   max(self.max_batch_for(model), live_members))

    # -- dispatch seam -----------------------------------------------------

    def _begin_service(self, item) -> None:
        if not isinstance(item, _Batch):
            super()._begin_service(item)
            return
        for request in item.members:
            self._member_state.pop(request.id, None)
        live = [r for r in item.members if not r.done]
        if not live:
            self._dispatch_next()
            return
        entry = self._models[item.model]
        batch_size = self._batch_dim(len(live), item.model)
        batched_sig = entry.engine.host_program.batched_signature(
            item.padded, batch_size)
        plan = entry.engine.peek_batched(item.padded, batch_size)
        if plan is None:
            # Background-compile the batched plan (a no-op once the pool
            # has quarantined it; a zero-duration freeze under
            # compile-once) and serve the members solo meanwhile.
            def install(attempt: int) -> None:
                entry.engine.prepare_batched(item.padded, batch_size)

            key = (item.model, batched_sig)
            self.pool.ensure(key, self._compile_job(key, install),
                             entry.compile_duration_us)
            self._explode(item, live)
            return
        tracer = self.tracer
        if tracer.enabled:
            for request in live:
                tracer.event("serving:route", parent=request.span,
                             path="batched")
        with tracer.span("batch:launch", model=item.model,
                         size=len(live), batch=batch_size):
            outputs_list, stats = entry.engine.run_batched(
                [r.inputs for r in live], item.padded, batch_size)
        finish = self.scheduler.now_us() + stats.total_time_us
        self.scheduler.call_at(
            finish,
            lambda: self._complete(live, "batched", outputs_list, stats))

    def _explode(self, item: _Batch, live: list) -> None:
        """Cold or quarantined batched plan: the members serve solo NOW.

        No member ever waits on a batched compile — the batch unrolls to
        the front of the queue and each request takes its usual solo
        path (fast if its plan is warm or the engine compiles once, the
        eager fallback otherwise).
        """
        self.counters["batches_exploded"] += 1
        if self.tracer.enabled:
            self.tracer.event("batch:explode", model=item.model,
                              size=len(live))
        self._queue.extendleft(reversed(live))
        self._dispatch_next()

    # -- expiry ------------------------------------------------------------

    def _withdraw(self, request: Request) -> None:
        """A bucketed member leaves its bucket (it never occupies a batch
        slot); a member of a formed batch stays in it, and dispatch and
        completion skip it.  Solo requests fall through to the base."""
        state = self._member_state.pop(request.id, None)
        if state is None:
            # A solo request, or a member of the batch in service.
            if request in self._queue:
                super()._withdraw(request)
            return
        kind, holder = state
        if kind == "bucket":
            holder.members.remove(request)
            if not holder.members and \
                    self._buckets.get(holder.key) is holder:
                del self._buckets[holder.key]
                if holder.flush_handle is not None:
                    holder.flush_handle.cancel()
                    holder.flush_handle = None

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        info = super().stats()
        info["batching"] = {"open_buckets": len(self._buckets)}
        return info
