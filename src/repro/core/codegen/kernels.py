"""Fused-kernel compilation: IR fusion groups -> executable Python kernels.

:func:`compile_group` turns one :class:`FusionGroup` into a
:class:`CompiledKernel`:

- **compile time** (here, once per graph): emit Python source computing the
  group's members in topological order, ``exec`` it into a callable, and
  build a :class:`CostRecipe` — symbolic formulas for the kernel's bytes
  moved and flops.
- **run time** (per call, any shape): the callable executes with the
  concrete arrays plus the ``dims`` bindings; the recipe and the selected
  schedule variant instantiate a :class:`KernelSpec` for the device cost
  model.  Nothing is recompiled when shapes change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ...device.cost import KernelSpec, library_efficiency
from ...ir.node import Node
from ...ir.ops import OpCategory, op_info
from ..fusion.kinds import FusionGroup, FusionKind
from ..fusion.legality import is_last_axis_reduce
from .exprs import emit_statement, serialize_shape
from .schedules import HEURISTIC_SELECTOR, Schedule, ScheduleSelector
from .support import SUPPORT_NAMESPACE, _shape

__all__ = ["CompiledKernel", "CostRecipe", "compile_group"]


@dataclass
class CostRecipe:
    """Symbolic byte/flop formulas, evaluated per call against ``dims``."""

    #: (serialized shape, dtype size) per external input read.
    reads: list = field(default_factory=list)
    #: (serialized shape, dtype size) per escaping output written.
    writes: list = field(default_factory=list)
    #: flop terms: ("map", shape, per_element) | ("dot", a, b) |
    #: ("conv", x, w, strides)
    flop_terms: list = field(default_factory=list)
    #: ("loop", root shape) or ("rows", row shape, col dim) or None.
    domain: tuple | None = None

    def eval_bytes(self, dims: dict) -> tuple:
        read = sum(math.prod(_shape(s, dims)) * size
                   for s, size in self.reads)
        written = sum(math.prod(_shape(s, dims)) * size
                      for s, size in self.writes)
        return read, written

    def eval_flops(self, dims: dict) -> float:
        total = 0.0
        for term in self.flop_terms:
            kind = term[0]
            if kind == "map":
                __, shape, per_element = term
                total += math.prod(_shape(shape, dims)) * per_element
            elif kind == "dot":
                __, a, b = term
                ca = _shape(a, dims)
                cb = _shape(b, dims)
                m, k = ca[-2], ca[-1]
                n = cb[-1]
                batch = math.prod(ca[:-2])
                batch = max(batch, math.prod(cb[:-2]))
                total += 2.0 * batch * m * k * n
            elif kind == "conv":
                __, x, w, strides = term
                cx = _shape(x, dims)
                kh, kw, cin, cout = w
                n, h, wd = cx[0], cx[1], cx[2]
                oh = -(-h // strides[0])
                ow = -(-wd // strides[1])
                total += 2.0 * n * oh * ow * kh * kw * cin * cout
            else:
                raise ValueError(f"unknown flop term kind {kind!r}")
        return float(total)


@dataclass
class CompiledKernel:
    """One compiled kernel: callable + cost recipe + schedule set."""

    name: str
    kind: FusionKind
    members: list
    input_nodes: list
    output_nodes: list
    source: str
    fn: Callable
    recipe: CostRecipe
    #: the matmul shapes when kind is LIBRARY (drives library efficiency).
    library_dims: tuple | None = None

    def execute(self, args: Sequence[np.ndarray],
                dims: dict) -> tuple:
        """Run the generated code; returns output arrays (a tuple)."""
        return self.fn(list(args), dims)

    # -- runtime schedule selection + costing --------------------------------

    def domain_extents(self, dims: dict) -> tuple | None:
        """Concrete iteration-domain extents of one launch.

        ``("loop", total, innermost)`` for elementwise kernels,
        ``("rows", rows, cols)`` for row-space reductions, None for
        kernels with no schedulable domain (library, host, metadata).
        The schedule selectors and the autotuner's strategy space both
        work from these extents.
        """
        if self.recipe.domain is None:
            return None
        kind = self.recipe.domain[0]
        if kind == "loop":
            shape = _shape(self.recipe.domain[1], dims)
            total = math.prod(shape)
            innermost = int(shape[-1]) if shape else 1
            return ("loop", total, innermost)
        if kind == "rows":
            rows = math.prod(_shape(self.recipe.domain[1], dims))
            cols = int(_shape((self.recipe.domain[2],), dims)[0])
            return ("rows", rows, cols)
        return None

    def select_schedule(self, dims: dict,
                        selector: ScheduleSelector | None = None
                        ) -> Schedule | None:
        """The dispatch stub: pick a variant from the concrete shapes.

        ``selector`` is the selection seam — None means the generic
        shape-threshold heuristics; the autotuner installs per-kernel
        winners through it.
        """
        extents = self.domain_extents(dims)
        if extents is None:
            return None
        if selector is None:
            selector = HEURISTIC_SELECTOR
        kind, major, minor = extents
        if kind == "loop":
            return selector.elementwise(self, major, minor)
        return selector.reduction(self, major, minor)

    def resolve_schedule(self, dims: dict,
                         forced: Schedule | None = None,
                         selector: ScheduleSelector | None = None
                         ) -> Schedule | None:
        """Plan-freezing hook: the variant one launch will actually use.

        With ``forced`` (the E9 ablation) the forced variant is used
        unless its schedule family does not fit this kernel's iteration
        domain — a forced elementwise schedule makes no sense on a
        row-space kernel and vice versa; the selector decides there.
        Both the legacy per-call engine and the launch-plan recorder go
        through this method, so a frozen plan can never disagree with
        what per-call selection would have picked.
        """
        if forced is None:
            return self.select_schedule(dims, selector)
        if self.recipe.domain is not None:
            domain_kind = self.recipe.domain[0]
            if (domain_kind == "rows") != forced.row_space:
                return self.select_schedule(dims, selector)
        return forced

    def cost_spec(self, dims: dict, schedule: Schedule | None,
                  base_efficiency: float = 1.0) -> KernelSpec:
        """Instantiate the cost-model spec for one launch."""
        read, written = self.recipe.eval_bytes(dims)
        flops = self.recipe.eval_flops(dims)
        efficiency = base_efficiency
        extra_launches = 0
        occupancy_exempt = self.kind is FusionKind.LIBRARY
        parallel = max(1, written // 4)
        if self.kind is FusionKind.LIBRARY and self.library_dims:
            a, b = self.library_dims
            ca = _shape(a, dims)
            cb = _shape(b, dims)
            batch = max(math.prod(ca[:-2]), math.prod(cb[:-2]))
            m, k, n = ca[-2], ca[-1], cb[-1]
            efficiency = base_efficiency * library_efficiency(
                batch * m, n, k) / 0.85
            parallel = batch * m * n
            occupancy_exempt = True
        elif schedule is not None and self.recipe.domain is not None:
            if self.recipe.domain[0] == "loop":
                shape = _shape(self.recipe.domain[1], dims)
                total = math.prod(shape)
                eff, parallel = schedule.elementwise_profile(total)
                efficiency = base_efficiency * eff
            else:
                rows = math.prod(_shape(self.recipe.domain[1], dims))
                cols = int(_shape((self.recipe.domain[2],), dims)[0])
                eff, parallel = schedule.reduction_profile(rows, cols)
                efficiency = base_efficiency * eff
            extra_launches = schedule.extra_launches
        return KernelSpec(
            name=self.name,
            bytes_read=read,
            bytes_written=written,
            flops=flops,
            parallel_elements=int(parallel),
            efficiency=efficiency,
            extra_launches=extra_launches,
            occupancy_exempt=occupancy_exempt,
        )


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def compile_group(group: FusionGroup, users: dict,
                  graph_outputs: Sequence[Node]) -> CompiledKernel:
    """Emit, compile and cost-annotate one fusion group."""
    members = list(group.members)
    input_nodes = group.inputs()
    output_nodes = group.outputs(users, graph_outputs)
    name = f"{group.kind.value}_{group.group_id}"

    names: dict[Node, str] = {}
    for node in input_nodes + members:
        names[node] = f"v{node.id}"

    lines = [f"def {name}(args, dims):"]
    if input_nodes:
        unpack = ", ".join(names[n] for n in input_nodes)
        trailing = "," if len(input_nodes) == 1 else ""
        lines.append(f"    ({unpack}{trailing}) = args")
    for node in members:
        lines.append("    " + emit_statement(node, names))
    returns = ", ".join(names[n] for n in output_nodes)
    trailing = "," if len(output_nodes) == 1 else ""
    lines.append(f"    return ({returns}{trailing})")
    source = "\n".join(lines)

    namespace = dict(SUPPORT_NAMESPACE)
    exec(compile(source, f"<kernel {name}>", "exec"), namespace)
    fn = namespace[name]

    recipe = _build_recipe(group, members, input_nodes, output_nodes)
    library_dims = None
    if group.kind is FusionKind.LIBRARY and members[0].op == "dot":
        a, b = members[0].inputs
        library_dims = (serialize_shape(a.shape), serialize_shape(b.shape))

    return CompiledKernel(
        name=name,
        kind=group.kind,
        members=members,
        input_nodes=input_nodes,
        output_nodes=output_nodes,
        source=source,
        fn=fn,
        recipe=recipe,
        library_dims=library_dims,
    )


def _build_recipe(group: FusionGroup, members: list, input_nodes: list,
                  output_nodes: list) -> CostRecipe:
    recipe = CostRecipe()
    for node in input_nodes:
        uses = [(member, i) for member in members
                for i, operand in enumerate(member.inputs)
                if operand is node]
        if uses and all(member.op == "gather" and i == 0
                        for member, i in uses):
            # A table only ever indexed by gathers: the kernel touches the
            # gathered rows, not the whole (potentially huge) table.
            for member, __ in uses:
                recipe.reads.append((serialize_shape(member.shape),
                                     node.dtype.size))
        else:
            recipe.reads.append((serialize_shape(node.shape),
                                 node.dtype.size))
    for node in output_nodes:
        recipe.writes.append((serialize_shape(node.shape), node.dtype.size))
    for node in members:
        info = op_info(node.op)
        category = node.category
        if category is OpCategory.ELEMENTWISE:
            recipe.flop_terms.append(
                ("map", serialize_shape(node.shape),
                 info.flops_per_element))
        elif category is OpCategory.REDUCTION:
            recipe.flop_terms.append(
                ("map", serialize_shape(node.inputs[0].shape), 1.0))
        elif category is OpCategory.DOT:
            a, b = node.inputs
            recipe.flop_terms.append(
                ("dot", serialize_shape(a.shape), serialize_shape(b.shape)))
        elif category is OpCategory.CONV:
            x, w = node.inputs
            recipe.flop_terms.append(
                ("conv", serialize_shape(x.shape),
                 tuple(int(d) for d in w.shape),
                 tuple(node.attrs.get("strides", (1, 1)))))
        elif category is OpCategory.COMPOSITE:
            per_element = {"softmax": 8.0, "layer_norm": 10.0,
                           "gelu": 12.0}.get(node.op, 4.0)
            recipe.flop_terms.append(
                ("map", serialize_shape(node.shape), per_element))
        elif category in (OpCategory.DATA_MOVEMENT, OpCategory.TRANSPOSE):
            recipe.flop_terms.append(
                ("map", serialize_shape(node.shape), 0.5))
        # broadcast/reshape/shape ops: no flops.
    recipe.domain = _schedule_domain(group, members)
    return recipe


def _schedule_domain(group: FusionGroup, members: list) -> tuple | None:
    """What iteration space drives schedule selection for this kernel."""
    if group.kind in (FusionKind.INPUT, FusionKind.STITCH):
        for node in members:
            if is_last_axis_reduce(node):
                in_shape = node.inputs[0].shape
                return ("rows", serialize_shape(in_shape[:-1]),
                        serialize_shape((in_shape[-1],))[0])
        # A kInput group whose reduce is not last-axis: schedule over the
        # reduce's input domain as a flat loop.
        for node in members:
            if node.is_reduction:
                return ("loop", serialize_shape(node.inputs[0].shape))
    if group.kind in (FusionKind.LOOP, FusionKind.SINGLETON):
        root = members[-1]
        if root.shape:
            return ("loop", serialize_shape(root.shape))
        return ("loop", (1,))
    return None
