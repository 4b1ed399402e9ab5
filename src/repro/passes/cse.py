"""Common subexpression elimination.

Two nodes compute the same value when they run the same op over the same
operands with equal attributes.  Attribute equality handles numpy arrays
(constants) by raw bytes, so duplicate weight-free constants (the scalar
epsilons and 0.5s that lowering sprinkles around) deduplicate too.  An
array is keyed by dtype, shape and a few sampled elements, so no weight
is copied or hashed whole; only arrays whose keys match are compared
byte for byte.
"""

from __future__ import annotations

import numpy as np

from ..ir.graph import Graph
from ..ir.node import Node
from .base import Pass

__all__ = ["CommonSubexpressionElimination"]


#: elements an array's hash key samples, evenly spaced over its extent.
_SAMPLES = 8


class _ArrayToken:
    """An ndarray attribute as a dict key: hashed by dtype, shape and
    sampled elements, equal iff dtype, shape and raw bytes are equal
    (so 0.0 and -0.0 differ and a NaN equals only its own bit pattern)."""

    __slots__ = ("value", "key")

    def __init__(self, value: np.ndarray) -> None:
        self.value = value
        flat = value.reshape(-1)
        step = max(1, -(-flat.size // _SAMPLES))
        self.key = (str(value.dtype), value.shape, flat[::step].tobytes(),
                    flat[-1:].tobytes())

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return (isinstance(other, _ArrayToken) and self.key == other.key
                and self.value.tobytes() == other.value.tobytes())


def _attr_token(value) -> object:
    if isinstance(value, np.ndarray):
        return _ArrayToken(value)
    if isinstance(value, (list, tuple)):
        return tuple(_attr_token(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _attr_token(v)) for k, v in value.items()))
    return value


def node_signature(node: Node, canonical: dict[Node, Node]) -> tuple:
    """A hashable key identifying the value ``node`` computes."""
    info_inputs = tuple(canonical.get(i, i).id for i in node.inputs)
    from ..ir.ops import op_info
    if op_info(node.op).commutative:
        info_inputs = tuple(sorted(info_inputs))
    attrs = _attr_token(node.attrs)
    return (node.op, info_inputs, attrs)


class CommonSubexpressionElimination(Pass):
    name = "cse"

    def run(self, graph: Graph) -> dict:
        canonical: dict[Node, Node] = {}
        seen: dict[tuple, Node] = {}
        removed = 0
        for node in graph.nodes:
            if node.op == "parameter":
                continue
            key = node_signature(node, canonical)
            if key in seen:
                canonical[node] = seen[key]
                removed += 1
            else:
                seen[key] = node
        # A keeper is never itself a duplicate, so one batched rewrite
        # equals replacing each duplicate in turn.
        graph.redirect(canonical)
        if removed:
            graph.prune()
            graph.normalize_order()
        return {"changed": removed > 0, "removed": removed}
