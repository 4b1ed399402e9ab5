"""Compiled cost monomials equal the template walk, exactly.

Cost recipes and buffer-plan intervals compile their shape templates
into monomials once; :mod:`tests.codegen.cost_reference` keeps the
per-call template walk they replaced.  Every ``cost_spec`` field, every
domain extent and every ``BufferPlan.evaluate`` result must be equal —
integers exactly, floats bit for bit — on random graphs at random
bindings, on hand-built conv / gather-only / matmul kernels, and on the
zoo.  The plan-freeze path must not walk a template at all.
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import compile_graph
from repro.core.codegen import support
from repro.core.codegen.schedules import schedule_named
from repro.core.fusion.kinds import FusionKind
from repro.device import A10
from repro.fuzz import make_inputs
from repro.fuzz.sampler import sample_bindings
from repro.ir import GraphBuilder, f32, i64
from repro.ir.shapes import SymDim
from repro.runtime import ExecutionEngine

from ..models.test_zoo import small
from ..strategies import fuzz_graphs
from . import cost_reference as reference

RELAXED = settings(max_examples=30, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large])


def assert_exact(executable, dims: dict) -> None:
    for kernel in executable.kernels:
        assert kernel.domain_extents(dims) == \
            reference.domain_extents(kernel, dims), kernel.name
        read, written = kernel.recipe.eval_bytes(dims)
        t = reference.templates(kernel)
        assert (read, written) == reference.eval_bytes(t, dims)
        assert kernel.recipe.eval_flops(dims) == \
            reference.eval_flops(t, dims)
        schedules = [None, kernel.select_schedule(dims)] + [
            kernel.resolve_schedule(dims, schedule_named(forced))
            for forced in ("vectorized4", "two_pass")]
        for schedule in schedules:
            for base in (1.0, 0.95):
                assert kernel.cost_spec(dims, schedule, base) == \
                    reference.cost_spec(kernel, dims, schedule, base), \
                    (kernel.name, schedule)
    plan = executable.buffer_plan
    stats = plan.evaluate(dims)
    assert stats == reference.evaluate(plan, dims)
    assert executable.symbolic_plan.peak_at(dims) == stats["peak_bytes"]


@given(graph=fuzz_graphs(max_nodes=12), seed=st.integers(0, 2**16))
@RELAXED
def test_compiled_costs_equal_template_walk_on_fuzz_graphs(graph, seed):
    executable = compile_graph(graph)
    bindings = sample_bindings(graph, random.Random(seed))
    inputs = make_inputs(graph, bindings, seed=0)
    assert_exact(executable, executable.host_program.bind(inputs))


def conv_graph():
    b = GraphBuilder("conv")
    n = b.sym("n")
    x = b.parameter("x", (n, 9, 11, 3), f32)
    w = b.constant(np.ones((3, 3, 3, 5), np.float32), f32)
    b.outputs(b.relu(b.conv2d(x, w, strides=(2, 3))))
    return b.graph


def gather_graph():
    b = GraphBuilder("gather")
    s = b.sym("s")
    table = b.parameter("table", (50, 16), f32)
    ids = b.parameter("ids", (s,), i64)
    b.outputs(b.exp(b.gather(table, ids)))
    return b.graph


def matmul_graph():
    b = GraphBuilder("matmul")
    batch, m = b.sym("batch"), b.sym("m")
    x = b.parameter("x", (batch, m, 32), f32)
    w = b.parameter("w", (32, 24), f32)
    b.outputs(b.softmax(b.dot(x, w)))
    return b.graph


@pytest.mark.parametrize("build", [conv_graph, gather_graph, matmul_graph])
@given(values=st.lists(st.integers(0, 300), min_size=1, max_size=4))
@RELAXED
def test_compiled_costs_equal_template_walk_on_hand_built(build, values):
    executable = compile_graph(build())
    names = sorted({d.name for node in executable.graph.nodes
                    for d in node.shape if isinstance(d, SymDim)})
    dims = {name: values[i % len(values)] for i, name in enumerate(names)}
    assert_exact(executable, dims)


def test_hand_built_graphs_cover_conv_gather_and_library():
    conv = compile_graph(conv_graph()).kernels
    assert any(term[0] == "conv" for k in conv
               for term in k.recipe.flop_terms)
    gather = [k for k in compile_graph(gather_graph()).kernels
              if any(m.op == "gather" for m in k.members)]
    # The table is read as the gathered rows, not as the whole table.
    (kernel,) = gather
    assert kernel.recipe.eval_bytes({"s": 3})[0] == 3 * 16 * 4 + 3 * 8
    library = [k for k in compile_graph(matmul_graph()).kernels
               if k.kind is FusionKind.LIBRARY]
    assert library and library[0].library_dims is not None


@pytest.mark.parametrize("name", ["bert", "crnn", "dien"])
def test_compiled_costs_equal_template_walk_on_zoo(name):
    model = small(name)
    executable = compile_graph(model.graph)
    rng = np.random.default_rng(0)
    for point in ("low", "high"):
        values = {axis: lo if point == "low" else hi
                  for axis, (lo, hi) in model.axes.items()}
        inputs = model.make_inputs(rng, **values)
        assert_exact(executable, executable.host_program.bind(inputs))


class _CallCounter:
    """Counts calls of the given code objects via ``sys.setprofile``, so
    a caller that imported the function under another name is counted
    too."""

    def __init__(self, *functions) -> None:
        self.codes = {f.__code__ for f in functions}
        self.calls = 0

    def __call__(self, frame, event, arg) -> None:
        if event == "call" and frame.f_code in self.codes:
            self.calls += 1

    def __enter__(self) -> "_CallCounter":
        sys.setprofile(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)


def test_freeze_walks_no_shape_template():
    model = small("bert")
    executable = compile_graph(model.graph)
    engine = ExecutionEngine(executable, A10)
    program = executable.host_program
    inputs = model.sample_inputs(np.random.default_rng(0))
    signature = program.signature(inputs)
    dims = program.bind(inputs)
    with _CallCounter(support._shape, support._dim) as counter:
        engine._freeze(signature, dims)
        engine._freeze(signature, dims, batch=4)
    assert counter.calls == 0
    # The counter does see a template walk when one happens.
    with _CallCounter(support._shape, support._dim) as counter:
        reference.evaluate(executable.buffer_plan, dims)
    assert counter.calls > 0
