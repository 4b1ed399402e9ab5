"""Resolving symbolic shapes against concrete runtime arrays.

At run time the engine receives concrete numpy arrays for the graph
parameters.  :func:`bind_inputs` unifies each parameter's symbolic shape with
its array to produce the *dim bindings* (symbol name -> int) for the call —
the runtime half of the paper's symbolic shape representation.  Downstream,
:func:`concretize_shape` turns any symbolic shape into ints, and
:func:`concretize_attrs` prepares the ``_concrete_*`` attr entries the numpy
kernels need for ``reshape`` / ``broadcast_in_dim``.
"""

from __future__ import annotations

import math
from typing import Mapping, MutableMapping, Sequence

import numpy as np

from ..ir.node import Node
from ..ir.shapes import Dim, SymDim

__all__ = [
    "BindingError",
    "unify_shape",
    "bind_inputs",
    "bind_signature",
    "concretize_shape",
    "concretize_attrs",
    "solve_reshape_shape",
    "resolve_all_dims",
    "DimResolutionPlan",
    "build_resolution_plan",
]


class BindingError(ValueError):
    """Concrete shapes contradict the graph's symbolic shapes."""


def unify_shape(sym_shape: Sequence[Dim], concrete: Sequence[int],
                bindings: MutableMapping[str, int]) -> None:
    """Match ``concrete`` against ``sym_shape``, extending ``bindings``.

    Raises :class:`BindingError` on rank mismatch, on a concrete dim that
    disagrees with the IR, or on a symbol already bound to a different
    value (e.g. two inputs that must share a batch size but do not).
    """
    if len(sym_shape) != len(concrete):
        raise BindingError(
            f"rank mismatch: expected {len(sym_shape)} dims "
            f"({tuple(sym_shape)}), got shape {tuple(concrete)}")
    for dim, actual in zip(sym_shape, concrete):
        actual = int(actual)
        if isinstance(dim, int):
            if dim != actual:
                raise BindingError(
                    f"static dim mismatch: IR says {dim}, array has "
                    f"{actual} (shape {tuple(concrete)})")
        else:
            bound = bindings.get(dim.name)
            if bound is None:
                bindings[dim.name] = actual
            elif bound != actual:
                raise BindingError(
                    f"symbol {dim.name} bound to {bound} but array "
                    f"requires {actual}")


def bind_inputs(params: Sequence[Node],
                inputs: Mapping[str, np.ndarray]) -> dict[str, int]:
    """Derive dim bindings from the parameter arrays of one call."""
    bindings: dict[str, int] = {}
    for param in params:
        pname = param.attrs["param_name"]
        if pname not in inputs:
            raise BindingError(f"missing input for parameter {pname!r}")
        unify_shape(param.shape, inputs[pname].shape, bindings)
    return bindings


def bind_signature(params: Sequence[Node],
                   signature: Sequence[tuple]) -> dict[str, int]:
    """Derive dim bindings from a ``(name, shape)`` signature — no arrays.

    The serving batcher freezes launch plans for *padded* signatures that
    no concrete request carries, so per-signature binding must work from
    shapes alone.  Extra signature entries are ignored, exactly as
    :func:`bind_inputs` ignores extra inputs.
    """
    shapes = {name: shape for name, shape in signature}
    bindings: dict[str, int] = {}
    for param in params:
        pname = param.attrs["param_name"]
        if pname not in shapes:
            raise BindingError(f"signature misses parameter {pname!r}")
        unify_shape(param.shape, shapes[pname], bindings)
    return bindings


def concretize_shape(shape: Sequence[Dim],
                     bindings: Mapping[str, int]) -> tuple:
    """Substitute all symbols; every symbol must be bound."""
    out = []
    for dim in shape:
        if isinstance(dim, SymDim):
            if dim.name not in bindings:
                raise BindingError(f"unbound symbolic dim {dim.name}")
            out.append(int(bindings[dim.name]))
        else:
            out.append(int(dim))
    return tuple(out)


def solve_reshape_shape(new_shape: Sequence[Dim], total_elements: int,
                        bindings: MutableMapping[str, int]) -> tuple:
    """Resolve a reshape target, solving at most one unbound symbol.

    A reshape like ``[batch, seq, h] -> [bs, h]`` introduces a symbol
    (``bs``) whose value is not carried by any graph input.  Exactly like
    numpy's ``-1`` extent, its value is implied by the operand's element
    count; we solve it here and *bind* it so later uses of the symbol
    resolve consistently.
    """
    known = 1
    unknown: SymDim | None = None
    out: list = []
    for dim in new_shape:
        if isinstance(dim, SymDim) and dim.name not in bindings:
            if unknown is not None:
                raise BindingError(
                    f"reshape target {tuple(new_shape)} has more than one "
                    f"unbound symbol ({unknown.name}, {dim.name})")
            unknown = dim
            out.append(dim)
            continue
        value = bindings[dim.name] if isinstance(dim, SymDim) else int(dim)
        known *= value
        out.append(value)
    if unknown is None:
        resolved = tuple(int(d) for d in out)
        if total_elements != math.prod(resolved):
            raise BindingError(
                f"reshape target {resolved} does not cover "
                f"{total_elements} elements")
        return resolved
    if known == 0 or total_elements % known != 0:
        raise BindingError(
            f"cannot solve {unknown.name}: {total_elements} elements do "
            f"not divide by known extent {known}")
    solved = total_elements // known
    bindings[unknown.name] = solved
    return tuple(solved if d is unknown else d for d in out)


class DimResolutionPlan:
    """Compile-time factored form of :func:`resolve_all_dims`.

    The legacy resolver walked *every* node of the graph on *every* call,
    re-discovering which ops mint derived symbols.  The plan does that
    discovery once: :func:`build_resolution_plan` scans the node list and
    compiles one small closure per symbol-minting site (reshape targets,
    concat axes, pad extents, conv2d spatial dims), each closed over
    exactly the serialized dims it reads.  ``run(bindings)`` then executes
    only those closures, in the original node order, so the binding
    sequence — and therefore every solved value — is identical to the
    legacy walk.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: list) -> None:
        self.steps = steps

    def run(self, bindings: MutableMapping[str, int]) -> None:
        """Solve every derivable symbol into ``bindings``."""
        for step in self.steps:
            step(bindings)

    def __len__(self) -> int:
        return len(self.steps)


def _spec(dim) -> object:
    """Serialize one dim for a step closure: symbol name or plain int."""
    return dim.name if isinstance(dim, SymDim) else int(dim)


def _reshape_step(node: Node):
    in_dims = tuple(_spec(d) for d in node.inputs[0].shape)
    new_shape = node.attrs["new_shape"]

    def step(bindings, _in=in_dims, _new=new_shape):
        total = 1
        for d in _in:
            if isinstance(d, str):
                value = bindings.get(d)
                if value is None:
                    return  # input not fully bound yet
                total *= value
            else:
                total *= d
        try:
            solve_reshape_shape(_new, total, bindings)
        except BindingError:
            pass  # more than one unknown; runtime solves lazily
    return step


def _concat_step(node: Node, out_name: str, axis: int):
    parts = tuple(_spec(operand.shape[axis]) for operand in node.inputs)

    def step(bindings, _out=out_name, _parts=parts):
        if _out in bindings:
            return
        total = 0
        for d in _parts:
            if isinstance(d, str):
                value = bindings.get(d)
                if value is None:
                    return  # an operand extent is still unknown
                total += value
            else:
                total += d
        bindings[_out] = total
    return step


def _pad_step(out_name: str, in_spec, lo: int, hi: int):
    def step(bindings, _out=out_name, _in=in_spec, _lo=lo, _hi=hi):
        if _out in bindings:
            return
        if isinstance(_in, str):
            value = bindings.get(_in)
            if value is None:
                return
        else:
            value = _in
        bindings[_out] = value + _lo + _hi
    return step


def _conv_step(node: Node, out_name: str, in_spec, spatial: int,
               stride: int):
    same = node.attrs.get("padding", "same") == "same"
    kernel_dim = node.inputs[1].shape[spatial - 1]

    def step(bindings, _out=out_name, _in=in_spec, _stride=stride,
             _same=same, _k=kernel_dim):
        if _out in bindings:
            return
        if isinstance(_in, str):
            value = bindings.get(_in)
            if value is None:
                return
        else:
            value = _in
        if _same:
            bindings[_out] = -(-value // _stride)
        else:
            bindings[_out] = (value - int(_k)) // _stride + 1
    return step


def build_resolution_plan(nodes: Sequence[Node]) -> DimResolutionPlan:
    """Compile the per-node symbol-solving steps for ``nodes``.

    Only nodes that can actually bind a new symbol get a step; a reshape
    whose target is fully static, or a concat whose output extent is a
    literal, contributes nothing at run time.
    """
    steps: list = []
    for node in nodes:
        if node.op == "reshape":
            if any(isinstance(d, SymDim)
                   for d in node.attrs["new_shape"]):
                steps.append(_reshape_step(node))
        elif node.op == "concat":
            axis = node.attrs["axis"]
            out_dim = node.shape[axis]
            if isinstance(out_dim, SymDim):
                steps.append(_concat_step(node, out_dim.name, axis))
        elif node.op == "pad":
            for axis, (lo, hi) in enumerate(node.attrs["pads"]):
                out_dim = node.shape[axis]
                if isinstance(out_dim, SymDim):
                    steps.append(_pad_step(
                        out_dim.name, _spec(node.inputs[0].shape[axis]),
                        lo, hi))
        elif node.op == "conv2d":
            strides = node.attrs.get("strides", (1, 1))
            for spatial, stride in ((1, strides[0]), (2, strides[1])):
                out_dim = node.shape[spatial]
                if isinstance(out_dim, SymDim):
                    steps.append(_conv_step(
                        node, out_dim.name,
                        _spec(node.inputs[0].shape[spatial]), spatial,
                        stride))
    return DimResolutionPlan(steps)


def resolve_all_dims(nodes: Sequence[Node],
                     bindings: MutableMapping[str, int]) -> None:
    """Statically solve every solvable symbol before execution.

    Some symbols are not carried by any graph input: reshape targets mint
    them (``[b, s, h] -> [bs, h]``), concat sums them, conv2d derives them
    from strides.  Walking the graph in topological order, each such symbol
    is computable from already-bound symbols — no tensor data needed.
    Binding them all up front makes kernel execution order-independent
    (an ``iota`` over a solved symbol may run before the reshape that
    "created" it).

    This is the one-shot form: it builds a :class:`DimResolutionPlan` for
    ``nodes`` and runs it immediately.  Repeated callers (the execution
    engine) build the plan once at compile time instead.
    """
    build_resolution_plan(nodes).run(bindings)


def concretize_attrs(node: Node, bindings: MutableMapping[str, int],
                     operand_shapes: Sequence[tuple] | None = None) -> dict:
    """Attrs with symbolic shape attributes resolved for execution.

    Returns a shallow copy; the node's own attrs are never mutated (they are
    shared across calls with different shapes).  ``operand_shapes`` (the
    concrete runtime shapes of the operands) is required for ``reshape`` so
    an unbound target symbol can be solved from the element count.
    """
    attrs = dict(node.attrs)
    if node.op == "reshape":
        if operand_shapes:
            total = int(np.prod(operand_shapes[0], initial=1))
            attrs["_concrete_new_shape"] = solve_reshape_shape(
                attrs["new_shape"], total, bindings)
        else:
            attrs["_concrete_new_shape"] = concretize_shape(
                attrs["new_shape"], bindings)
    elif node.op == "broadcast_in_dim":
        attrs["_concrete_out_shape"] = concretize_shape(
            attrs["out_shape"], bindings)
    elif node.op == "iota":
        attrs["shape"] = concretize_shape(attrs["shape"], bindings)
    elif node.op == "slice":
        # limits (and in principle starts/strides) may reference symbolic
        # dims for "take the whole axis"; the generated-code path resolves
        # them against runtime dims (codegen.support._slice) and the
        # interpreter must agree.
        for key in ("starts", "limits", "strides"):
            spec = attrs.get(key)
            if spec is not None and any(isinstance(d, SymDim)
                                        for d in spec):
                attrs[key] = concretize_shape(spec, bindings)
    return attrs
