"""Fused-kernel compilation: IR fusion groups -> executable Python kernels.

:func:`compile_group` turns one :class:`FusionGroup` into a
:class:`CompiledKernel`:

- **compile time** (here, once per graph): emit Python source computing the
  group's members in topological order, ``exec`` it into a callable, and
  build a :class:`CostRecipe` — the kernel's bytes moved and flops,
  compiled from its symbolic shapes into monomials.
- **run time** (per call, any shape): the callable executes with the
  concrete arrays plus the ``dims`` bindings; the recipe and the selected
  schedule variant instantiate a :class:`KernelSpec` for the device cost
  model.  Nothing is recompiled when shapes change.

The two halves are :func:`cost_group` (the recipe) and :func:`emit_kernel`
(source and callable), so a kernel that is only ever charged — the
simulated baselines until they first run — never generates code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ...device.cost import KernelSpec, library_efficiency
from ...ir.node import Node
from ...ir.ops import OpCategory, op_info
from ..fusion.kinds import FusionGroup, FusionKind
from ..fusion.legality import is_last_axis_reduce
from .exprs import (emit_statement, monomial_value, polynomial_value,
                    serialize_shape, shape_monomial, sum_monomials)
from .schedules import HEURISTIC_SELECTOR, Schedule, ScheduleSelector
from .support import SUPPORT_NAMESPACE

__all__ = ["CompiledKernel", "CostRecipe", "compile_group", "cost_group",
           "emit_kernel"]


@dataclass
class CostRecipe:
    """Byte/flop formulas compiled to monomials, evaluated per call.

    Every shape template is compiled once, here at compile time, into a
    monomial ``(coefficient, symbols)`` (:func:`shape_monomial`); the
    per-call work is dict lookups and multiplications.  Integer sums and
    products are exact in any order, so like byte terms are merged; each
    flop term keeps its own float evaluation order.
    """

    #: bytes read per call: a sum of monomials (dtype size folded in).
    reads: tuple = ()
    #: bytes written per call: a sum of monomials.
    writes: tuple = ()
    #: flop terms: ("map", elements, per_element) |
    #: ("dot", batch_a, batch_b, m, k, n) |
    #: ("conv", n, h, w, (kh, kw, cin, cout), strides) — monomials
    #: except the static conv weight dims and strides.
    flop_terms: list = field(default_factory=list)
    #: ("loop", elements, innermost) or ("rows", rows, cols) monomials,
    #: or None.
    domain: tuple | None = None

    def eval_bytes(self, dims: dict) -> tuple:
        return (polynomial_value(self.reads, dims),
                polynomial_value(self.writes, dims))

    def eval_flops(self, dims: dict) -> float:
        total = 0.0
        for term in self.flop_terms:
            kind = term[0]
            if kind == "map":
                __, elements, per_element = term
                total += monomial_value(elements, dims) * per_element
            elif kind == "dot":
                __, batch_a, batch_b, m, k, n = term
                batch = max(monomial_value(batch_a, dims),
                            monomial_value(batch_b, dims))
                total += (2.0 * batch * monomial_value(m, dims)
                          * monomial_value(k, dims)
                          * monomial_value(n, dims))
            elif kind == "conv":
                __, n, h, wd, (kh, kw, cin, cout), strides = term
                oh = -(-monomial_value(h, dims) // strides[0])
                ow = -(-monomial_value(wd, dims) // strides[1])
                total += (2.0 * monomial_value(n, dims) * oh * ow
                          * kh * kw * cin * cout)
            else:
                raise ValueError(f"unknown flop term kind {kind!r}")
        return float(total)


def _dim_monomial(dim) -> tuple:
    """One serialized dim as a monomial."""
    return shape_monomial((dim,))


def _dot_monomials(a: tuple, b: tuple) -> tuple:
    """``(batch_a, batch_b, m, k, n)`` of a dot's serialized operands."""
    return (shape_monomial(a[:-2]), shape_monomial(b[:-2]),
            _dim_monomial(a[-2]), _dim_monomial(a[-1]),
            _dim_monomial(b[-1]))


@dataclass
class CompiledKernel:
    """One compiled kernel: callable + cost recipe + schedule set."""

    name: str
    kind: FusionKind
    members: list
    input_nodes: list
    output_nodes: list
    #: generated source and its callable; "" and None until
    #: :func:`emit_kernel` runs.
    source: str
    fn: Callable | None
    recipe: CostRecipe
    #: ``(batch_a, batch_b, m, k, n)`` monomials of the matmul when kind
    #: is LIBRARY (drives library efficiency).
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
        domain = self.recipe.domain
        if domain is None:
            return None
        return (domain[0], monomial_value(domain[1], dims),
                monomial_value(domain[2], dims))

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
            batch_a, batch_b, m, k, n = self.library_dims
            batch = max(monomial_value(batch_a, dims),
                        monomial_value(batch_b, dims))
            m = monomial_value(m, dims)
            k = monomial_value(k, dims)
            n = monomial_value(n, dims)
            efficiency = base_efficiency * library_efficiency(
                batch * m, n, k) / 0.85
            parallel = batch * m * n
            occupancy_exempt = True
        elif schedule is not None and self.recipe.domain is not None:
            kind, major, minor = self.domain_extents(dims)
            if kind == "loop":
                eff, parallel = schedule.elementwise_profile(major)
            else:
                eff, parallel = schedule.reduction_profile(major, minor)
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
    kernel = cost_group(group, users, graph_outputs)
    emit_kernel(kernel)
    return kernel


def cost_group(group: FusionGroup, users: dict,
               graph_outputs: Sequence[Node]) -> CompiledKernel:
    """One fusion group's kernel with its cost recipe but no code yet.

    That is all a charge reads; :func:`emit_kernel` adds the callable
    before the kernel can run.
    """
    members = list(group.members)
    input_nodes = group.inputs()
    output_nodes = group.outputs(users, graph_outputs)
    library_dims = None
    if group.kind is FusionKind.LIBRARY and members[0].op == "dot":
        a, b = members[0].inputs
        library_dims = _dot_monomials(serialize_shape(a.shape),
                                      serialize_shape(b.shape))
    return CompiledKernel(
        name=f"{group.kind.value}_{group.group_id}",
        kind=group.kind,
        members=members,
        input_nodes=input_nodes,
        output_nodes=output_nodes,
        source="",
        fn=None,
        recipe=_build_recipe(group, members, input_nodes, output_nodes),
        library_dims=library_dims,
    )


def emit_kernel(kernel: CompiledKernel) -> None:
    """Generate ``kernel``'s Python source and ``exec`` it into ``fn``."""
    name = kernel.name
    input_nodes = kernel.input_nodes
    output_nodes = kernel.output_nodes
    names: dict[Node, str] = {}
    for node in input_nodes + kernel.members:
        names[node] = f"v{node.id}"

    lines = [f"def {name}(args, dims):"]
    if input_nodes:
        unpack = ", ".join(names[n] for n in input_nodes)
        trailing = "," if len(input_nodes) == 1 else ""
        lines.append(f"    ({unpack}{trailing}) = args")
    for node in kernel.members:
        lines.append("    " + emit_statement(node, names))
    returns = ", ".join(names[n] for n in output_nodes)
    trailing = "," if len(output_nodes) == 1 else ""
    lines.append(f"    return ({returns}{trailing})")
    kernel.source = "\n".join(lines)

    namespace = dict(SUPPORT_NAMESPACE)
    exec(compile(kernel.source, f"<kernel {name}>", "exec"), namespace)
    kernel.fn = namespace[name]


def _build_recipe(group: FusionGroup, members: list, input_nodes: list,
                  output_nodes: list) -> CostRecipe:
    reads = []
    for node in input_nodes:
        uses = [(member, i) for member in members
                for i, operand in enumerate(member.inputs)
                if operand is node]
        if uses and all(member.op == "gather" and i == 0
                        for member, i in uses):
            # A table only ever indexed by gathers: the kernel touches the
            # gathered rows, not the whole (potentially huge) table.
            for member, __ in uses:
                reads.append(_elements(member.shape, node.dtype.size))
        else:
            reads.append(_elements(node.shape, node.dtype.size))
    writes = [_elements(node.shape, node.dtype.size)
              for node in output_nodes]
    flop_terms = []
    for node in members:
        info = op_info(node.op)
        category = node.category
        if category is OpCategory.ELEMENTWISE:
            flop_terms.append(
                ("map", _elements(node.shape), info.flops_per_element))
        elif category is OpCategory.REDUCTION:
            flop_terms.append(("map", _elements(node.inputs[0].shape), 1.0))
        elif category is OpCategory.DOT:
            a, b = node.inputs
            flop_terms.append(("dot",) + _dot_monomials(
                serialize_shape(a.shape), serialize_shape(b.shape)))
        elif category is OpCategory.CONV:
            x, w = node.inputs
            n, h, wd = serialize_shape(x.shape)[:3]
            flop_terms.append(
                ("conv", _dim_monomial(n), _dim_monomial(h),
                 _dim_monomial(wd), tuple(int(d) for d in w.shape),
                 tuple(node.attrs.get("strides", (1, 1)))))
        elif category is OpCategory.COMPOSITE:
            per_element = {"softmax": 8.0, "layer_norm": 10.0,
                           "gelu": 12.0}.get(node.op, 4.0)
            flop_terms.append(("map", _elements(node.shape), per_element))
        elif category in (OpCategory.DATA_MOVEMENT, OpCategory.TRANSPOSE):
            flop_terms.append(("map", _elements(node.shape), 0.5))
        # broadcast/reshape/shape ops: no flops.
    return CostRecipe(reads=sum_monomials(reads),
                      writes=sum_monomials(writes),
                      flop_terms=flop_terms,
                      domain=_schedule_domain(group, members))


def _elements(shape, scale: int = 1) -> tuple:
    """A node shape's element count times ``scale``, as a monomial."""
    return shape_monomial(serialize_shape(shape), scale)


def _schedule_domain(group: FusionGroup, members: list) -> tuple | None:
    """What iteration space drives schedule selection for this kernel:
    ``("loop", elements, innermost)`` or ``("rows", rows, cols)``."""
    if group.kind in (FusionKind.INPUT, FusionKind.STITCH):
        for node in members:
            if is_last_axis_reduce(node):
                in_shape = serialize_shape(node.inputs[0].shape)
                return ("rows", shape_monomial(in_shape[:-1]),
                        _dim_monomial(in_shape[-1]))
        # A kInput group whose reduce is not last-axis: schedule over the
        # reduce's input domain as a flat loop.
        for node in members:
            if node.is_reduction:
                return _loop_domain(serialize_shape(node.inputs[0].shape))
    if group.kind in (FusionKind.LOOP, FusionKind.SINGLETON):
        root = members[-1]
        if root.shape:
            return _loop_domain(serialize_shape(root.shape))
        return _loop_domain((1,))
    return None


def _loop_domain(shape: tuple) -> tuple:
    innermost = _dim_monomial(shape[-1]) if shape else (1, ())
    return ("loop", shape_monomial(shape), innermost)
