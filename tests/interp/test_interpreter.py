"""The reference interpreter."""

import tracemalloc

import numpy as np
import pytest

from repro.bench.experiments import E15_MODELS
from repro.interp import Interpreter, evaluate
from repro.ir import GraphBuilder, f32, i64
from repro.models import build_model
from repro.numerics import (BindingError, apply_op, bind_inputs,
                            concretize_attrs, unify_shape)

from ..conftest import toy_mlp_graph, toy_mlp_inputs


def test_evaluates_toy_mlp(rng):
    b = toy_mlp_graph()
    inputs = toy_mlp_inputs(rng, batch=2, seq=3)
    (out,) = evaluate(b.graph, inputs)
    assert out.shape == (2, 3, 16)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-5)


def test_same_graph_many_shapes(rng):
    b = toy_mlp_graph()
    for batch, seq in [(1, 1), (2, 9), (5, 4)]:
        inputs = toy_mlp_inputs(rng, batch, seq)
        (out,) = evaluate(b.graph, inputs)
        assert out.shape == (batch, seq, 16)


def test_gather_embedding(rng):
    b = GraphBuilder("emb")
    s = b.sym("s")
    table = b.parameter("table", (10, 4), f32)
    ids = b.parameter("ids", (s,), i64)
    b.outputs(b.gather(table, ids))
    table_v = rng.normal(size=(10, 4)).astype(np.float32)
    ids_v = np.asarray([3, 3, 9], dtype=np.int64)
    (out,) = evaluate(b.graph, {"table": table_v, "ids": ids_v})
    assert np.allclose(out, table_v[ids_v])


def test_multiple_outputs(rng):
    b = GraphBuilder("two")
    x = b.parameter("x", (4,), f32)
    b.outputs(b.relu(x), b.neg(x))
    xv = rng.normal(size=(4,)).astype(np.float32)
    relu_out, neg_out = evaluate(b.graph, {"x": xv})
    assert np.allclose(relu_out, np.maximum(xv, 0))
    assert np.allclose(neg_out, -xv)


def test_rejects_wrong_static_shape():
    b = GraphBuilder("g")
    b.parameter("x", (4,), f32)
    b.outputs(b.graph.params[0])
    with pytest.raises(BindingError):
        evaluate(b.graph, {"x": np.zeros((5,), dtype=np.float32)})


def test_rejects_inconsistent_symbol(rng):
    b = GraphBuilder("g")
    s = b.sym("s")
    x = b.parameter("x", (s,), f32)
    y = b.parameter("y", (s,), f32)
    b.outputs(b.add(x, y))
    with pytest.raises(BindingError):
        evaluate(b.graph, {"x": np.zeros(3, np.float32),
                           "y": np.zeros(4, np.float32)})


def test_output_dtype_enforced(rng):
    b = GraphBuilder("g")
    x = b.parameter("x", (3,), f32)
    b.outputs(b.cast(x, i64))
    (out,) = evaluate(b.graph, {"x": np.ones(3, np.float32)})
    assert out.dtype == np.int64


def test_interpreter_reusable(rng):
    b = toy_mlp_graph()
    interp = Interpreter(b.graph)
    for batch in (1, 2, 3):
        inputs = toy_mlp_inputs(rng, batch, 4)
        (out,) = interp.run(inputs)
        assert out.shape == (batch, 4, 16)


def test_evaluate_holds_only_live_values():
    """A 120-node elementwise chain over 256 KB arrays: holding every
    intermediate would trace about 30 MB; only the live ones fit in 2."""
    b = GraphBuilder("chain")
    value = b.parameter("x", (256, 256), f32)
    for index in range(120):
        value = b.neg(value) if index % 2 else b.exp(value)
    b.outputs(value)
    x = np.full((256, 256), 0.5, dtype=np.float32)
    tracemalloc.start()
    try:
        (out,) = evaluate(b.graph, {"x": x})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (256, 256)
    assert peak < 2 * 2**20, f"traced peak {peak} bytes"


def _evaluate_holding_everything(graph, inputs) -> list:
    """The plain node walk with no release: the values the freeing
    interpreter must reproduce bit for bit."""
    bindings = bind_inputs(graph.params, inputs)
    env = {}
    for node in graph.nodes:
        if node.op == "parameter":
            value = np.ascontiguousarray(inputs[node.attrs["param_name"]])
        else:
            args = [env[operand] for operand in node.inputs]
            attrs = concretize_attrs(node, bindings,
                                     [a.shape for a in args])
            value = np.asarray(apply_op(node.op, args, attrs))
        value = value.astype(node.dtype.to_numpy(), copy=False)
        unify_shape(node.shape, value.shape, bindings)
        env[node] = value
    return [env[out] for out in graph.outputs]


@pytest.mark.parametrize("name", sorted(E15_MODELS))
def test_freeing_dead_values_keeps_zoo_outputs_bit_identical(name):
    model = build_model(name, **E15_MODELS[name])
    inputs = model.sample_inputs(np.random.default_rng(7))
    expected = _evaluate_holding_everything(model.graph, inputs)
    actual = evaluate(model.graph, inputs)
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
