"""Lowering: decompose composite ops into fusible primitives.

``softmax``, ``layer_norm`` and ``gelu`` exist in the op set so model
builders read naturally, but the fusion planner and code generator only see
primitives.  This pass expands each composite into the reduce/elementwise
subgraph that computes it — exactly the subgraphs the paper's ``kInput`` and
``kStitch`` fusion kinds exist to fuse.
"""

from __future__ import annotations

import math

from ..ir.builder import GraphBuilder
from ..ir.graph import Graph
from ..ir.node import Node
from .base import Pass

__all__ = ["LowerComposites"]


class LowerComposites(Pass):
    """Expand softmax / layer_norm / gelu into primitives, in place."""

    name = "lower-composites"

    def run(self, graph: Graph) -> dict:
        builder = GraphBuilder(graph=graph)
        replacements: dict[Node, Node] = {}
        # Iterate over a snapshot: lowering appends new nodes to the list.
        for node in list(graph.nodes):
            if node.op == "softmax":
                replacement = _lower_softmax(builder, node)
            elif node.op == "layer_norm":
                replacement = _lower_layer_norm(builder, node)
            elif node.op == "gelu":
                replacement = _lower_gelu(builder, node)
            else:
                continue
            replacements[node] = replacement
        # Replacements are fresh nodes, never composites, so one batched
        # rewrite equals replacing each composite as it is lowered.
        graph.redirect(replacements)
        lowered = len(replacements)
        if lowered:
            graph.prune()
            graph.normalize_order()
        return {"changed": lowered > 0, "lowered": lowered}


def _lower_softmax(b: GraphBuilder, node: Node) -> Node:
    (x,) = node.inputs
    axis = node.attrs.get("axis", -1) % len(x.shape)
    peak = b.reduce_max(x, axis, keepdims=True)
    shifted = b.sub(x, peak)
    exped = b.exp(shifted)
    total = b.reduce_sum(exped, axis, keepdims=True)
    return b.div(exped, total)


def _lower_layer_norm(b: GraphBuilder, node: Node) -> Node:
    x, scale, bias = node.inputs
    eps = node.attrs.get("eps", 1e-5)
    mean = b.reduce_mean(x, -1, keepdims=True)
    centered = b.sub(x, mean)
    var = b.reduce_mean(b.mul(centered, centered), -1, keepdims=True)
    inv = b.rsqrt(b.add(var, b.scalar(eps, node.dtype)))
    normed = b.mul(centered, inv)
    return b.add(b.mul(normed, scale), b.broadcast_to(bias, x.shape))


def _lower_gelu(b: GraphBuilder, node: Node) -> Node:
    (x,) = node.inputs
    inv_sqrt2 = b.scalar(1.0 / math.sqrt(2.0), node.dtype)
    half = b.scalar(0.5, node.dtype)
    one = b.scalar(1.0, node.dtype)
    inner = b.erf(b.mul(x, inv_sqrt2))
    return b.mul(b.mul(x, half), b.add(one, inner))
