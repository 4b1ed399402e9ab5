"""Per-op Python expression emission for generated kernels.

:func:`emit_statement` renders one IR node as a Python assignment over
previously-defined value names.  Symbolic shapes in attributes are
serialized as tuples of ``int | str`` (symbol name) and resolved by the
support library against the per-call ``dims`` bindings.

Cost recipes and buffer plans never walk those tuples per call: a
serialized shape's element count is compiled once into a *monomial*
``(coefficient, symbols)`` (:func:`shape_monomial`), and the per-call
work is a few dict lookups and integer multiplications
(:func:`monomial_value`, :func:`polynomial_value`).
"""

from __future__ import annotations

from ...ir.node import Node
from ...ir.shapes import Dim, SymDim

__all__ = ["emit_statement", "monomial_value", "polynomial_value",
           "serialize_shape", "shape_monomial", "sum_monomials"]


def serialize_shape(shape) -> tuple:
    """Symbolic shape -> literal tuple of ints and symbol-name strings."""
    return tuple(d.name if isinstance(d, SymDim) else int(d) for d in shape)


# -- compiled shape arithmetic ----------------------------------------------

def shape_monomial(template, scale: int = 1) -> tuple:
    """A serialized shape's element count times ``scale``, compiled.

    Returns ``(coefficient, symbols)``: the product of the static dims
    and ``scale``, and the symbol names in sorted order (integer
    products commute, so ``(s, t)`` and ``(t, s)`` compile alike).
    """
    coefficient = int(scale)
    symbols = []
    for dim in template:
        if isinstance(dim, str):
            symbols.append(dim)
        else:
            coefficient *= int(dim)
    return coefficient, tuple(sorted(symbols))


def monomial_value(monomial: tuple, dims: dict) -> int:
    """Evaluate one compiled monomial at concrete ``dims``.

    Every symbol is looked up and ``int``-coerced even when the
    coefficient is zero, so an unbound symbol raises as it always did.
    """
    value, symbols = monomial
    for name in symbols:
        value *= int(dims[name])
    return value


def sum_monomials(monomials) -> tuple:
    """Merge like terms of a sum of monomials (integer sums are exact)."""
    merged: dict = {}
    for coefficient, symbols in monomials:
        merged[symbols] = merged.get(symbols, 0) + coefficient
    return tuple((coefficient, symbols)
                 for symbols, coefficient in merged.items())


def polynomial_value(terms: tuple, dims: dict) -> int:
    """Evaluate a sum of compiled monomials at concrete ``dims``."""
    total = 0
    for value, symbols in terms:
        for name in symbols:
            value *= int(dims[name])
        total += value
    return total


_INFIX = {"add": "+", "sub": "-", "mul": "*", "pow": "**"}
_COMPARE = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
            "ge": ">="}
_NP_UNARY = {"neg": "np.negative", "abs": "np.abs", "exp": "np.exp",
             "log": "np.log", "sqrt": "np.sqrt", "tanh": "np.tanh",
             "floor": "np.floor", "sign": "np.sign"}
_SUPPORT_UNARY = {"erf": "_erf", "sigmoid": "_sigmoid", "rsqrt": "_rsqrt",
                  "relu": "_relu"}
_REDUCE_FN = {"sum": "np.sum", "max": "np.max", "min": "np.min",
              "mean": "np.mean", "prod": "np.prod",
              "argmax": "np.argmax", "argmin": "np.argmin"}


class EmitError(ValueError):
    """An op reached codegen that has no expression form."""


def emit_statement(node: Node, names: dict[Node, str]) -> str:
    """Render ``node`` as ``<out> = <expr>`` given operand value names."""
    out = names[node]
    args = [names[operand] for operand in node.inputs]
    expr = _emit_expr(node, args)
    return f"{out} = {expr}"


def _emit_expr(node: Node, args: list[str]) -> str:
    op = node.op
    if op in _INFIX:
        return f"({args[0]} {_INFIX[op]} {args[1]})"
    if op in _COMPARE:
        return f"({args[0]} {_COMPARE[op]} {args[1]})"
    if op in _NP_UNARY:
        return f"{_NP_UNARY[op]}({args[0]})"
    if op in _SUPPORT_UNARY:
        return f"{_SUPPORT_UNARY[op]}({args[0]})"
    if op == "div":
        return f"_div({args[0]}, {args[1]})"
    if op == "maximum":
        return f"np.maximum({args[0]}, {args[1]})"
    if op == "minimum":
        return f"np.minimum({args[0]}, {args[1]})"
    if op == "select":
        return f"np.where({args[0]}, {args[1]}, {args[2]})"
    if op == "cast":
        return f"{args[0]}.astype(np.{node.attrs['dtype'].np_dtype.name})"
    if op == "broadcast_in_dim":
        shape = serialize_shape(node.attrs["out_shape"])
        bdims = tuple(node.attrs["broadcast_dims"])
        return f"_broadcast({args[0]}, {shape!r}, {bdims!r}, dims)"
    if op == "reshape":
        shape = serialize_shape(node.attrs["new_shape"])
        return f"_reshape({args[0]}, {shape!r}, dims)"
    if op == "transpose":
        return f"np.ascontiguousarray(np.transpose({args[0]}, " \
               f"{tuple(node.attrs['perm'])!r}))"
    if op == "slice":
        starts = tuple(node.attrs["starts"])
        limits = serialize_shape(node.attrs["limits"])
        strides = tuple(node.attrs.get("strides")
                        or (1,) * len(node.inputs[0].shape))
        return (f"_slice({args[0]}, {starts!r}, {limits!r}, {strides!r}, "
                f"dims)")
    if op == "concat":
        joined = ", ".join(args)
        return f"np.concatenate(({joined},), axis={node.attrs['axis']})"
    if op == "gather":
        axis = node.attrs.get("axis", 0)
        return f"_gather({args[0]}, {args[1]}, {axis})"
    if op == "reduce":
        kind = node.attrs["kind"]
        fn = _REDUCE_FN[kind]
        axes = tuple(node.attrs["axes"])
        keepdims = bool(node.attrs.get("keepdims", False))
        np_name = node.dtype.np_dtype.name
        axis_arg = axes[0] if kind in ("argmax", "argmin") else axes
        return (f"np.asarray({fn}({args[0]}, axis={axis_arg!r}, "
                f"keepdims={keepdims}), dtype=np.{np_name})")
    if op == "pad":
        pads = tuple(tuple(p) for p in node.attrs["pads"])
        value = node.attrs.get("value", 0)
        return f"np.pad({args[0]}, {pads!r}, constant_values={value!r})"
    if op == "dot":
        return f"np.matmul({args[0]}, {args[1]})"
    if op == "conv2d":
        strides = tuple(node.attrs.get("strides", (1, 1)))
        padding = node.attrs.get("padding", "same")
        return f"_conv2d({args[0]}, {args[1]}, {strides!r}, {padding!r})"
    if op == "iota":
        shape = serialize_shape(node.attrs["shape"])
        dtype = node.attrs.get("dtype")
        np_name = dtype.np_dtype.name if dtype is not None else "int64"
        return f"_iota({shape!r}, {node.attrs['axis']}, np.{np_name}, dims)"
    if op == "softmax":
        return f"_softmax({args[0]}, {node.attrs.get('axis', -1)})"
    if op == "layer_norm":
        eps = node.attrs.get("eps", 1e-5)
        return f"_layer_norm({args[0]}, {args[1]}, {args[2]}, {eps!r})"
    if op == "gelu":
        return f"_gelu({args[0]})"
    if op == "shape_of":
        return f"np.asarray({args[0]}.shape, dtype=np.int64)"
    if op == "dim_size":
        return (f"np.asarray({args[0]}.shape[{node.attrs['axis']}], "
                f"dtype=np.int64)")
    raise EmitError(f"no expression form for op {op!r} "
                    f"(composites must be lowered before codegen)")
