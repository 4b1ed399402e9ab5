"""A straightforward graph interpreter.

Evaluates a graph node-by-node in topological order using the numpy
semantics from :mod:`repro.numerics`.  It performs no optimisation at all,
which is exactly what makes it trustworthy: every compiled executor and
every simulated baseline is tested against it.  It is only the reference;
no serving path runs it.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.shapes import is_static
from ..numerics import (apply_op, bind_inputs, concretize_attrs,
                        concretize_shape, unify_shape)

__all__ = ["Interpreter", "evaluate"]


class Interpreter:
    """Evaluates graphs on concrete inputs.

    The interpreter validates runtime shapes against the IR's symbolic
    shapes as it goes, so a wrong shape-inference rule surfaces as an error
    here rather than as silently wrong data downstream.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def run(self, inputs: Mapping[str, np.ndarray]) -> list[np.ndarray]:
        """Evaluate the graph; returns output arrays in graph-output order.

        Bindings start from the inputs' shapes and grow as symbols are
        first unified.
        """
        bindings = bind_inputs(self.graph.params, inputs)
        env: dict[Node, np.ndarray] = {}
        for node in self.graph.nodes:
            if node.op == "parameter":
                value = np.ascontiguousarray(
                    inputs[node.attrs["param_name"]])
            else:
                args = [env[operand] for operand in node.inputs]
                attrs = concretize_attrs(node, bindings,
                                         [a.shape for a in args])
                value = np.asarray(apply_op(node.op, args, attrs))
            expected_np = node.dtype.to_numpy()
            if value.dtype != expected_np:
                value = value.astype(expected_np)
            # Extend bindings with symbols first seen at this node
            # (e.g. minted by concat/conv2d inference), then check.
            unify_shape(node.shape, value.shape, bindings)
            if is_static(node.shape):
                expected = concretize_shape(node.shape, bindings)
                if tuple(value.shape) != expected:
                    raise RuntimeError(
                        f"{node.short()}: computed shape "
                        f"{value.shape} != inferred {expected}")
            env[node] = value
        return [env[out] for out in self.graph.outputs]


def evaluate(graph: Graph,
             inputs: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(graph).run(inputs)
