"""The IR graph: an SSA DAG of nodes with a symbol table.

A :class:`Graph` owns its nodes (kept in creation order, which is always a
valid topological order because operands must exist before their users), its
parameters, its designated outputs, and the :class:`SymbolTable` from which
every symbolic dim in the graph is drawn.

Mutation model: passes either (a) build a fresh graph via rewriting, or (b)
use the in-place helpers ``replace_all_uses`` (or its batched form
``redirect``) + ``prune`` for local rewrites.
Both keep the topological invariant.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from .dtypes import DType
from .node import Node
from .ops import InferContext, InferenceError, op_info
from .shapes import SymbolTable

__all__ = ["Graph"]


class Graph:
    """A dataflow graph over tensors with symbolic shapes."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.symtab = SymbolTable()
        self.nodes: list[Node] = []
        self.params: list[Node] = []
        self.outputs: list[Node] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add(self, op: str, inputs: list[Node] | tuple = (),
            attrs: dict[str, Any] | None = None,
            name: str | None = None) -> Node:
        """Create a node, running shape/dtype inference.

        Raises :class:`InferenceError` when operands are incompatible, so an
        ill-typed graph can never be constructed.
        """
        inputs = list(inputs)
        attrs = dict(attrs or {})
        info = op_info(op)
        if info.arity is not None and len(inputs) != info.arity:
            raise InferenceError(
                f"{op}: expected {info.arity} operands, got {len(inputs)}")
        for operand in inputs:
            if not isinstance(operand, Node):
                raise InferenceError(
                    f"{op}: operand {operand!r} is not a Node")
        ctx = InferContext(
            shapes=[n.shape for n in inputs],
            in_dtypes=[n.dtype for n in inputs],
            attrs=attrs,
            symtab=self.symtab,
        )
        shape, dtype = info.infer(ctx)
        node = Node(self._next_id, op, inputs, attrs, shape, dtype, name)
        self._next_id += 1
        self.nodes.append(node)
        if op == "parameter":
            self.params.append(node)
        return node

    def parameter(self, name: str, shape, dtype: DType) -> Node:
        """Declare a graph input."""
        return self.add("parameter", (), {
            "shape": tuple(shape), "dtype": dtype, "param_name": name,
        }, name=name)

    def constant(self, value: np.ndarray, name: str | None = None) -> Node:
        return self.add("constant", (), {"value": np.asarray(value)},
                        name=name)

    def set_outputs(self, outputs: Iterable[Node]) -> None:
        self.outputs = list(outputs)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def users(self) -> dict[Node, list[Node]]:
        """Map node -> nodes that consume it (in topological order)."""
        table: dict[Node, list[Node]] = {n: [] for n in self.nodes}
        for node in self.nodes:
            for operand in node.inputs:
                table[operand].append(node)
        return table

    def find(self, predicate: Callable[[Node], bool]) -> list[Node]:
        return [n for n in self.nodes if predicate(n)]

    def by_op(self, op: str) -> list[Node]:
        return [n for n in self.nodes if n.op == op]

    def param_named(self, name: str) -> Node:
        for p in self.params:
            if p.attrs.get("param_name") == name:
                return p
        raise KeyError(f"no parameter named {name!r} in graph {self.name}")

    def param_names(self) -> list[str]:
        return [p.attrs["param_name"] for p in self.params]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def replace_all_uses(self, old: Node, new: Node) -> int:
        """Redirect every use of ``old`` (including outputs) to ``new``.

        Returns the number of use sites rewritten.  ``old`` itself stays in
        the node list until :meth:`prune` removes it if dead.
        """
        return self.redirect({old: new})

    def redirect(self, mapping: dict[Node, Node]) -> int:
        """Redirect every use of each key of ``mapping`` (including
        outputs) to its value, in one pass over the graph.

        Returns the number of use sites rewritten.  A value is not looked
        up again, so when no value is also a key this equals one
        :meth:`replace_all_uses` call per entry.
        """
        # Keyed by identity: ``id`` is cheaper than ``Node.__hash__``.
        targets = {id(old): new for old, new in mapping.items()
                   if old is not new}
        if not targets:
            return 0
        count = 0
        for node in self.nodes:
            for i, operand in enumerate(node.inputs):
                new = targets.get(id(operand))
                if new is not None:
                    node.inputs[i] = new
                    count += 1
        for i, out in enumerate(self.outputs):
            new = targets.get(id(out))
            if new is not None:
                self.outputs[i] = new
                count += 1
        return count

    def prune(self) -> int:
        """Remove nodes not reachable from the outputs. Returns #removed.

        Parameters are never removed (the external calling convention is
        part of the graph's contract even if an input became unused).
        """
        live: set[int] = set()
        stack = list(self.outputs) + list(self.params)
        while stack:
            node = stack.pop()
            if node.id in live:
                continue
            live.add(node.id)
            stack.extend(node.inputs)
        removed = len(self.nodes) - len(live)
        self.nodes = [n for n in self.nodes if n.id in live]
        return removed

    def normalize_order(self) -> None:
        """Re-sort ``nodes`` into a topological order (Kahn's algorithm).

        In-place rewriting passes append replacement nodes at the end of
        the list and then redirect uses, which can break creation-order
        topology; they call this once at the end to restore the invariant.
        """
        from collections import deque
        indegree = {n: len(n.inputs) for n in self.nodes}
        users = self.users()
        ready = deque(n for n in self.nodes if indegree[n] == 0)
        order: list[Node] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for user in users[node]:
                indegree[user] -= 1
                if indegree[user] == 0:
                    ready.append(user)
        if len(order) != len(self.nodes):
            raise RuntimeError(f"graph {self.name!r} contains a cycle")
        self.nodes = order

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def clone(self) -> "Graph":
        """Deep-copy the graph structure (attrs are shallow-copied)."""
        out = Graph(self.name)
        out.symtab = self.symtab  # symbols are immutable; share the table
        out._next_id = self._next_id
        mapping: dict[Node, Node] = {}
        for node in self.nodes:
            copy = Node(node.id, node.op,
                        [mapping[i] for i in node.inputs],
                        dict(node.attrs), node.shape, node.dtype, node.name)
            mapping[node] = copy
            out.nodes.append(copy)
        out.params = [mapping[p] for p in self.params]
        out.outputs = [mapping[o] for o in self.outputs]
        return out

    def __repr__(self) -> str:
        return (f"Graph({self.name!r}, nodes={len(self.nodes)}, "
                f"params={len(self.params)}, outputs={len(self.outputs)})")
