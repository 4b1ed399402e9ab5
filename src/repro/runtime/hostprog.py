"""The compiled host program: a slot-addressed instruction stream.

BladeDISC's combined compile-time/runtime codegen moves every decision
that does not need concrete shape *values* to compile time; the runtime
(RAL) only executes the residue.  The legacy engine violated that split on
the host side: every call re-walked the whole graph to resolve derived
symbols, managed its environment as a dict keyed by node ids, and
re-gathered each kernel's arguments by node identity.

:func:`lower_program` removes all of that structure-discovery from the
per-call path, once, at compile time:

- **dense slots** — every value (parameter, constant, kernel output) is
  renumbered to a dense index; the call environment becomes a preallocated
  list copied from a template with the constants already in place;
- **slot-indexed instructions** — each kernel's input/output slot tuples
  are precomputed, so argument gathering is plain list indexing;
- **factored dim resolution** — the whole-graph ``resolve_all_dims`` walk
  is reduced to a :class:`~repro.numerics.resolve.DimResolutionPlan`:
  one compiled closure per symbol-minting site, nothing else;
- **last-use release** — each instruction carries the slots whose final
  read it performs (the same liveness the buffer planner derives), so
  dead intermediates are dropped as the stream advances instead of
  pinning every array until the call returns;
- **signature fast path** — the per-call cache key is built by a
  precomputed param-order closure (no sorting; see
  :func:`~repro.runtime.caches.make_signature_fn`).

What still depends on concrete shape values — binding, derived-symbol
solving, schedule selection, cost evaluation, the memory-plan numbers —
runs once per *signature* and is frozen into a
:class:`~repro.runtime.launchplan.LaunchPlan`, not once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics.resolve import (DimResolutionPlan, bind_inputs,
                                bind_signature, build_resolution_plan)
from .caches import make_signature_fn

__all__ = ["HostInstruction", "HostProgram", "lower_program"]


@dataclass(frozen=True)
class HostInstruction:
    """One kernel launch, fully slot-addressed."""

    #: the :class:`~repro.core.codegen.kernels.CompiledKernel` to run.
    kernel: object
    #: environment slots holding the kernel's arguments, in order.
    in_slots: tuple
    #: environment slots receiving the kernel's outputs, in order.
    out_slots: tuple
    #: slots whose last read this instruction performs (dead afterwards);
    #: never includes program outputs.
    release: tuple


class HostProgram:
    """The compile-time half of execution: slots, instructions, plans."""

    def __init__(self, params: list, param_slots: tuple,
                 env_template: list, instructions: list,
                 output_slots: tuple, resolution: DimResolutionPlan,
                 slot_of: dict, planned_slots: tuple = ()) -> None:
        #: parameter nodes, in program order (for binding).
        self.params = params
        #: ((slot, param_name), ...) — where each input array lands.
        self.param_slots = param_slots
        #: slot-indexed list with constants pre-bound; copied per call.
        self.env_template = env_template
        #: the ordered :class:`HostInstruction` stream.
        self.instructions = instructions
        #: slots holding the program results, in output order.
        self.output_slots = output_slots
        #: factored derived-symbol solver (runs once per signature).
        self.resolution = resolution
        #: node id -> slot (diagnostics, lint, tests).
        self.slot_of = slot_of
        #: env slots of buffer-planned values (kernel outputs the
        #: memory plan accounts for) — the measurement oracle in
        #: ``runtime.symplan`` tracks exactly these.
        self.planned_slots = tuple(planned_slots)
        #: param-order signature closure (the per-call cache key).
        self.signature = make_signature_fn(params)

    @property
    def num_slots(self) -> int:
        return len(self.env_template)

    def execute(self, inputs, dims: dict, hook=None) -> list:
        """Run the instruction stream once; returns the program outputs.

        The one gather → execute → scatter → release loop every executor
        shares.  ``dims`` are the call's frozen bindings (a launch plan's,
        or a fresh :meth:`bind`); nothing here charges cost.  ``hook``
        (None = off) observes each instruction: ``hook.before(instr)``
        runs before the kernel, ``hook.after(instr, env)`` after its
        outputs are scattered and before any slot is released, so a hook
        still sees the values about to die.  ``instr.kernel.execute`` is
        looked up on every call, never pre-bound, so a kernel's
        ``execute`` can be swapped on the instance.
        """
        env = self.env_template.copy()
        for slot, name in self.param_slots:
            env[slot] = np.ascontiguousarray(inputs[name])
        for instr in self.instructions:
            if hook is None:
                outputs = instr.kernel.execute(
                    [env[s] for s in instr.in_slots], dims)
                for slot, value in zip(instr.out_slots, outputs):
                    env[slot] = value
            else:
                hook.before(instr)
                outputs = instr.kernel.execute(
                    [env[s] for s in instr.in_slots], dims)
                for slot, value in zip(instr.out_slots, outputs):
                    env[slot] = value
                hook.after(instr, env)
            for slot in instr.release:
                env[slot] = None
        return [env[slot] for slot in self.output_slots]

    def bind(self, inputs) -> dict:
        """Dim bindings for one call: unify inputs, solve derived symbols.

        This is the per-*signature* work; per-call execution reuses the
        frozen result from the launch plan.
        """
        dims = bind_inputs(self.params, inputs)
        self.resolution.run(dims)
        return dims

    def bind_signature(self, signature) -> dict:
        """Dim bindings straight from a ``(name, shape)`` signature.

        The array-free twin of :meth:`bind`, for callers that have a
        signature but no data — the batcher freezes plans for *padded*
        signatures no single request ever materializes.
        """
        dims = bind_signature(self.params, signature)
        self.resolution.run(dims)
        return dims

    @staticmethod
    def batched_signature(signature, batch_size: int) -> tuple:
        """``batch_size`` stacked members: a leading batch dim on every
        parameter shape.

        This is the signature a batched launch plan is keyed and
        formatted under, so batched and solo plans can never collide in a
        shared :class:`~repro.runtime.launchplan.LaunchPlanCache` — the
        ranks differ.
        """
        return tuple((name, (batch_size,) + tuple(shape))
                     for name, shape in signature)

    def describe(self) -> str:
        """Human-readable listing, for debugging and docs."""
        lines = [f"host program: {self.num_slots} slots, "
                 f"{len(self.instructions)} instructions, "
                 f"{len(self.resolution)} resolution steps"]
        for slot, name in self.param_slots:
            lines.append(f"  slot[{slot}] <- param {name!r}")
        for index, instr in enumerate(self.instructions):
            release = f" release{list(instr.release)}" if instr.release \
                else ""
            lines.append(
                f"  {index:3d}: {list(instr.out_slots)} = "
                f"{instr.kernel.name}({list(instr.in_slots)}){release}")
        lines.append(f"  return {list(self.output_slots)}")
        return "\n".join(lines)


def lower_program(graph, kernels: list, constants: dict,
                  buffer_plan=None) -> HostProgram:
    """Lower an ordered kernel list into a :class:`HostProgram`.

    Slot numbering follows the legacy engine's environment-population
    order — parameters, then constants, then each kernel's outputs in
    execution order — so the instruction stream computes byte-identical
    results in byte-identical order.
    """
    slot_of: dict[int, int] = {}

    def assign(node) -> int:
        slot = slot_of.get(node.id)
        if slot is None:
            slot = len(slot_of)
            slot_of[node.id] = slot
        return slot

    params = list(graph.params)
    param_slots = tuple(
        (assign(param), param.attrs["param_name"]) for param in params)
    constant_slots = [(assign(node), value)
                      for node, value in constants.items()]
    for kernel in kernels:
        for node in kernel.output_nodes:
            assign(node)

    def slot_for(node) -> int:
        slot = slot_of.get(node.id)
        if slot is None:
            raise ValueError(
                f"kernel input {node.short()} is produced by no kernel, "
                f"parameter or constant — broken execution order")
        return slot

    raw = [(kernel,
            tuple(slot_for(n) for n in kernel.input_nodes),
            tuple(slot_of[n.id] for n in kernel.output_nodes))
           for kernel in kernels]

    output_slots = tuple(slot_for(node) for node in graph.outputs)

    # Liveness over the instruction stream: a slot dies after its last
    # read (program outputs never die; unread kernel outputs die at
    # their producing instruction, matching the buffer plan's
    # ``end == start`` intervals).
    last_read: dict[int, int] = {}
    for index, (__, in_slots, __out) in enumerate(raw):
        for slot in in_slots:
            last_read[slot] = index
    live_to_end = set(output_slots)
    param_or_constant = {slot for slot, __ in param_slots}
    param_or_constant.update(slot for slot, __ in constant_slots)

    release_at: dict[int, list] = {}
    for index, (__, __in, out_slots) in enumerate(raw):
        for slot in out_slots:
            if slot in live_to_end or slot in param_or_constant:
                continue
            release_at.setdefault(last_read.get(slot, index), []) \
                .append(slot)
    for slot, index in last_read.items():
        if slot in live_to_end or slot not in param_or_constant:
            continue
        # Parameters and constants also drop out of the per-call
        # environment after their last read (the template keeps owning
        # the constant arrays themselves).
        release_at.setdefault(index, []).append(slot)

    instructions = [
        HostInstruction(
            kernel=kernel,
            in_slots=in_slots,
            out_slots=out_slots,
            release=tuple(sorted(set(release_at.get(index, ())))),
        )
        for index, (kernel, in_slots, out_slots) in enumerate(raw)]

    env_template: list = [None] * len(slot_of)
    for slot, value in constant_slots:
        env_template[slot] = value

    planned_slots: tuple = ()
    if buffer_plan is not None:
        planned_slots = tuple(sorted(
            slot_of[interval.node_id]
            for interval in buffer_plan.intervals
            if interval.node_id in slot_of))

    return HostProgram(
        params=params,
        param_slots=param_slots,
        env_template=env_template,
        instructions=instructions,
        output_slots=output_slots,
        resolution=build_resolution_plan(graph.nodes),
        slot_of=slot_of,
        planned_slots=planned_slots,
    )
