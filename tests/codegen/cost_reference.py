"""Cost recipes and buffer-plan sizes by template walk, as a test oracle.

This is how kernels were costed before recipes compiled their shapes
into monomials: every call re-derives the serialized shape templates
from the kernel's IR nodes and resolves them one dim at a time through
the support library's ``_shape``.  The compiled recipes must produce the
same ``KernelSpec`` field for field, the same domain extents, and the
same buffer-plan statistics, at any binding.
"""

import math

from repro.core.codegen.exprs import serialize_shape
from repro.core.codegen.support import _shape
from repro.core.fusion.kinds import FusionKind
from repro.core.fusion.legality import is_last_axis_reduce
from repro.device.cost import KernelSpec, library_efficiency
from repro.ir.ops import OpCategory, op_info


def templates(kernel) -> dict:
    """The kernel's serialized reads, writes, flop terms, domain and
    library dims, derived from its IR nodes."""
    members = kernel.members
    reads = []
    for node in kernel.input_nodes:
        uses = [(member, i) for member in members
                for i, operand in enumerate(member.inputs)
                if operand is node]
        if uses and all(member.op == "gather" and i == 0
                        for member, i in uses):
            for member, __ in uses:
                reads.append((serialize_shape(member.shape),
                              node.dtype.size))
        else:
            reads.append((serialize_shape(node.shape), node.dtype.size))
    writes = [(serialize_shape(node.shape), node.dtype.size)
              for node in kernel.output_nodes]
    flop_terms = []
    for node in members:
        category = node.category
        if category is OpCategory.ELEMENTWISE:
            flop_terms.append(("map", serialize_shape(node.shape),
                               op_info(node.op).flops_per_element))
        elif category is OpCategory.REDUCTION:
            flop_terms.append(
                ("map", serialize_shape(node.inputs[0].shape), 1.0))
        elif category is OpCategory.DOT:
            a, b = node.inputs
            flop_terms.append(("dot", serialize_shape(a.shape),
                               serialize_shape(b.shape)))
        elif category is OpCategory.CONV:
            x, w = node.inputs
            flop_terms.append(("conv", serialize_shape(x.shape),
                               tuple(int(d) for d in w.shape),
                               tuple(node.attrs.get("strides", (1, 1)))))
        elif category is OpCategory.COMPOSITE:
            per_element = {"softmax": 8.0, "layer_norm": 10.0,
                           "gelu": 12.0}.get(node.op, 4.0)
            flop_terms.append(("map", serialize_shape(node.shape),
                               per_element))
        elif category in (OpCategory.DATA_MOVEMENT, OpCategory.TRANSPOSE):
            flop_terms.append(("map", serialize_shape(node.shape), 0.5))
    library_dims = None
    if kernel.kind is FusionKind.LIBRARY and members[0].op == "dot":
        a, b = members[0].inputs
        library_dims = (serialize_shape(a.shape), serialize_shape(b.shape))
    return {"reads": reads, "writes": writes, "flop_terms": flop_terms,
            "domain": _domain(kernel.kind, members),
            "library_dims": library_dims}


def _domain(kind, members):
    if kind in (FusionKind.INPUT, FusionKind.STITCH):
        for node in members:
            if is_last_axis_reduce(node):
                in_shape = node.inputs[0].shape
                return ("rows", serialize_shape(in_shape[:-1]),
                        serialize_shape((in_shape[-1],))[0])
        for node in members:
            if node.is_reduction:
                return ("loop", serialize_shape(node.inputs[0].shape))
    if kind in (FusionKind.LOOP, FusionKind.SINGLETON):
        root = members[-1]
        if root.shape:
            return ("loop", serialize_shape(root.shape))
        return ("loop", (1,))
    return None


def eval_bytes(t: dict, dims: dict) -> tuple:
    read = sum(math.prod(_shape(s, dims)) * size for s, size in t["reads"])
    written = sum(math.prod(_shape(s, dims)) * size
                  for s, size in t["writes"])
    return read, written


def eval_flops(t: dict, dims: dict) -> float:
    total = 0.0
    for term in t["flop_terms"]:
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
        else:
            __, x, w, strides = term
            cx = _shape(x, dims)
            kh, kw, cin, cout = w
            n, h, wd = cx[0], cx[1], cx[2]
            oh = -(-h // strides[0])
            ow = -(-wd // strides[1])
            total += 2.0 * n * oh * ow * kh * kw * cin * cout
    return float(total)


def domain_extents(kernel, dims: dict):
    domain = templates(kernel)["domain"]
    if domain is None:
        return None
    if domain[0] == "loop":
        shape = _shape(domain[1], dims)
        return ("loop", math.prod(shape), int(shape[-1]) if shape else 1)
    rows = math.prod(_shape(domain[1], dims))
    cols = int(_shape((domain[2],), dims)[0])
    return ("rows", rows, cols)


def cost_spec(kernel, dims: dict, schedule,
              base_efficiency: float = 1.0) -> KernelSpec:
    t = templates(kernel)
    read, written = eval_bytes(t, dims)
    flops = eval_flops(t, dims)
    efficiency = base_efficiency
    extra_launches = 0
    occupancy_exempt = kernel.kind is FusionKind.LIBRARY
    parallel = max(1, written // 4)
    if kernel.kind is FusionKind.LIBRARY and t["library_dims"]:
        a, b = t["library_dims"]
        ca = _shape(a, dims)
        cb = _shape(b, dims)
        batch = max(math.prod(ca[:-2]), math.prod(cb[:-2]))
        m, k, n = ca[-2], ca[-1], cb[-1]
        efficiency = base_efficiency * library_efficiency(
            batch * m, n, k) / 0.85
        parallel = batch * m * n
        occupancy_exempt = True
    elif schedule is not None and t["domain"] is not None:
        kind, major, minor = domain_extents(kernel, dims)
        if kind == "loop":
            eff, parallel = schedule.elementwise_profile(major)
        else:
            eff, parallel = schedule.reduction_profile(major, minor)
        efficiency = base_efficiency * eff
        extra_launches = schedule.extra_launches
    return KernelSpec(
        name=kernel.name, bytes_read=read, bytes_written=written,
        flops=flops, parallel_elements=int(parallel),
        efficiency=efficiency, extra_launches=extra_launches,
        occupancy_exempt=occupancy_exempt)


def evaluate(buffer_plan, dims: dict) -> dict:
    """``BufferPlan.evaluate`` by walking every interval's shape."""
    naive = 0
    slot_size = [0] * buffer_plan.num_slots
    for interval in buffer_plan.intervals:
        size = math.prod(_shape(interval.shape, dims)) * interval.dtype_size
        naive += size
        slot_size[interval.slot] = max(slot_size[interval.slot], size)
    peak = sum(slot_size)
    constant = buffer_plan.constant_bytes
    return {
        "naive_bytes": naive,
        "peak_bytes": peak,
        "constant_bytes": constant,
        "total_peak_bytes": peak + constant,
        "reuse_factor": naive / peak if peak else 1.0,
        "slots": buffer_plan.num_slots,
        "values": len(buffer_plan.intervals),
    }
