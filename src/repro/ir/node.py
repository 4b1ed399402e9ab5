"""IR nodes.

A :class:`Node` is a single-output SSA operation: op kind, operand nodes,
attributes, and an inferred (possibly symbolic) shape/dtype.  Single-output
keeps the IR simple — the op set never needs tuples — and lets a node double
as the value it produces, like classic sea-of-nodes IRs.
"""

from __future__ import annotations

from typing import Any, Iterable

from .dtypes import DType
from .ops import OpCategory, op_info
from .shapes import Dim, format_shape

__all__ = ["Node"]


class Node:
    """One operation in a graph.

    Nodes are created through :class:`~repro.ir.graph.Graph` (usually via
    the builder), which assigns ids and runs shape inference; they should
    not be constructed directly by user code.
    """

    __slots__ = ("id", "op", "inputs", "attrs", "shape", "dtype", "name",
                 "__weakref__")

    def __init__(self, node_id: int, op: str, inputs: list["Node"],
                 attrs: dict[str, Any], shape: tuple, dtype: DType,
                 name: str | None = None) -> None:
        self.id = node_id
        self.op = op
        self.inputs = inputs
        self.attrs = attrs
        self.shape: tuple[Dim, ...] = shape
        self.dtype = dtype
        self.name = name or f"%{node_id}"

    # -- classification helpers (delegate to the registry) ---------------

    @property
    def category(self) -> OpCategory:
        return op_info(self.op).category

    @property
    def is_elementwise(self) -> bool:
        return self.category is OpCategory.ELEMENTWISE

    @property
    def is_reduction(self) -> bool:
        return self.category is OpCategory.REDUCTION

    @property
    def rank(self) -> int:
        return len(self.shape)

    def attr(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)

    def __repr__(self) -> str:
        ins = ", ".join(n.name for n in self.inputs)
        return (f"{self.name}: {self.dtype}{format_shape(self.shape)} = "
                f"{self.op}({ins})")

    def short(self) -> str:
        return f"{self.name}:{self.op}"

    def __hash__(self) -> int:
        return hash(self.id)

    def __eq__(self, other: object) -> bool:
        return self is other

    def operands(self) -> Iterable["Node"]:
        return iter(self.inputs)
