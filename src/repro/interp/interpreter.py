"""A straightforward graph interpreter.

Evaluates a graph node-by-node in topological order using the numpy
semantics from :mod:`repro.numerics`.  It performs no optimisation of the
semantics at all, which is exactly what makes it trustworthy: every
compiled executor and every simulated baseline is tested against it.  It
is only the reference; no serving path runs it.

Its one concession to memory is hygiene, not optimisation: each value is
dropped after its last reader, as a real runtime frees a buffer at its
last use.  The last uses come from the graph's own node order, not from
the compiled host program's release lists, so the reference stays
independent of the code it checks.
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
        first unified.  Only live values are held: each is dropped after
        its last reader, graph outputs are kept to the end.
        """
        bindings = bind_inputs(self.graph.params, inputs)
        releases = self._releases()
        env: dict[Node, np.ndarray] = {}
        for node, dead in zip(self.graph.nodes, releases):
            if node.op == "parameter":
                env[node] = self._checked(
                    node, np.ascontiguousarray(
                        inputs[node.attrs["param_name"]]), bindings)
            else:
                env[node] = self._apply(
                    node, [env[operand] for operand in node.inputs],
                    bindings)
            for value_node in dead:
                del env[value_node]
        return [env[out] for out in self.graph.outputs]

    def _apply(self, node: Node, args: list, bindings: dict) -> np.ndarray:
        """Compute one non-parameter node from its operand values."""
        attrs = concretize_attrs(node, bindings, [a.shape for a in args])
        return self._checked(
            node, np.asarray(apply_op(node.op, args, attrs)), bindings)

    @staticmethod
    def _checked(node: Node, value: np.ndarray,
                 bindings: dict) -> np.ndarray:
        """``value`` cast to the node's dtype, its shape checked.

        Symbols first seen at this node (e.g. minted by concat/conv2d
        inference) extend ``bindings`` before the check.
        """
        expected_np = node.dtype.to_numpy()
        if value.dtype != expected_np:
            value = value.astype(expected_np)
        unify_shape(node.shape, value.shape, bindings)
        if is_static(node.shape):
            expected = concretize_shape(node.shape, bindings)
            if tuple(value.shape) != expected:
                raise RuntimeError(
                    f"{node.short()}: computed shape "
                    f"{value.shape} != inferred {expected}")
        return value

    def _releases(self) -> list[list[Node]]:
        """Per node, in node order, the values that die once it ran.

        A value dies after its last reader; a value nothing reads dies
        as soon as its own shape is checked.  Graph outputs never die.
        """
        nodes = self.graph.nodes
        last_reader: dict[Node, int] = {}
        for position, node in enumerate(nodes):
            last_reader[node] = position
            for operand in node.inputs:
                last_reader[operand] = position
        kept = set(self.graph.outputs)
        releases: list[list[Node]] = [[] for _ in nodes]
        for node, position in last_reader.items():
            if node not in kept:
                releases[position].append(node)
        return releases


def evaluate(graph: Graph,
             inputs: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(graph).run(inputs)
