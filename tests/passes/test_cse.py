"""Common subexpression elimination."""

import numpy as np

from repro.interp import evaluate
from repro.ir import GraphBuilder, f32, verify
from repro.passes import CommonSubexpressionElimination, PassManager


def cse(graph):
    return PassManager([CommonSubexpressionElimination()],
                       verify_each=True).run(graph)[0]


def test_duplicate_expressions_merged():
    b = GraphBuilder("g")
    x = b.parameter("x", (4,), f32)
    a1 = b.exp(x)
    a2 = b.exp(x)
    b.outputs(b.add(a1, a2))
    result = cse(b.graph)
    assert result.details["removed"] == 1
    assert len(b.graph.by_op("exp")) == 1


def test_commutative_ops_normalised():
    b = GraphBuilder("g")
    x = b.parameter("x", (4,), f32)
    y = b.parameter("y", (4,), f32)
    s1 = b.add(x, y)
    s2 = b.add(y, x)
    b.outputs(b.mul(s1, s2))
    cse(b.graph)
    assert len(b.graph.by_op("add")) == 1


def test_noncommutative_order_matters():
    b = GraphBuilder("g")
    x = b.parameter("x", (4,), f32)
    y = b.parameter("y", (4,), f32)
    d1 = b.sub(x, y)
    d2 = b.sub(y, x)
    b.outputs(b.mul(d1, d2))
    result = cse(b.graph)
    assert len(b.graph.by_op("sub")) == 2


def test_attrs_distinguish():
    b = GraphBuilder("g")
    x = b.parameter("x", (4, 8), f32)
    r1 = b.reduce_sum(x, axes=0)
    r2 = b.reduce_sum(x, axes=1)
    b.outputs(b.concat([r1], axis=0), b.concat([r2], axis=0))
    cse(b.graph)
    assert len(b.graph.by_op("reduce")) == 2


def test_identical_constants_merged():
    b = GraphBuilder("g")
    x = b.parameter("x", (2,), f32)
    c1 = b.constant([5.0, 5.0], f32)
    c2 = b.constant([5.0, 5.0], f32)
    b.outputs(b.add(b.add(x, c1), c2))
    cse(b.graph)
    assert len(b.graph.by_op("constant")) == 1


def test_chained_duplicates_collapse():
    b = GraphBuilder("g")
    x = b.parameter("x", (4,), f32)
    chain1 = b.neg(b.exp(x))
    chain2 = b.neg(b.exp(x))
    b.outputs(b.add(chain1, chain2))
    result = cse(b.graph)
    assert result.details["removed"] == 2


def test_numerics_preserved(rng):
    b = GraphBuilder("g")
    x = b.parameter("x", (6,), f32)
    b.outputs(b.add(b.exp(x), b.exp(x)))
    inputs = {"x": rng.normal(size=(6,)).astype(np.float32)}
    (before,) = evaluate(b.graph, inputs)
    cse(b.graph)
    (after,) = evaluate(b.graph, inputs)
    assert np.allclose(before, after)
    verify(b.graph)


def constants_after_cse(first, second):
    """How many constants survive CSE of ``x + first + second``."""
    b = GraphBuilder("g")
    x = b.parameter("x", np.shape(first), f32)
    c1 = b.constant(first, f32)
    c2 = b.constant(second, f32)
    b.outputs(b.add(b.add(x, c1), c2))
    cse(b.graph)
    return len(b.graph.by_op("constant"))


def test_signed_zeros_stay_distinct():
    # 0.0 == -0.0 numerically, but the constants differ bit for bit.
    assert constants_after_cse([0.0, 1.0], [-0.0, 1.0]) == 2


def test_nan_merges_only_with_its_own_bits():
    nan = np.float32(np.nan)
    other = np.frombuffer(
        (np.frombuffer(nan.tobytes(), np.uint32) | 1).tobytes(),
        np.float32)[0]
    assert np.isnan(other)
    assert constants_after_cse([nan, 1.0], [nan, 1.0]) == 1
    assert constants_after_cse([nan, 1.0], [other, 1.0]) == 2


def test_equal_zero_biases_merged():
    assert constants_after_cse(np.zeros(64), np.zeros(64)) == 1


def test_arrays_differing_in_one_unsampled_element_stay_distinct():
    from repro.passes.cse import _attr_token
    first = np.arange(100, dtype=np.float32)
    second = first.copy()
    second[5] = -1.0
    # Same hash key (element 5 is not sampled): the raw bytes decide.
    assert _attr_token(first).key == _attr_token(second).key
    assert _attr_token(first) != _attr_token(second)
    assert constants_after_cse(first, second) == 2
    assert constants_after_cse(first, first.copy()) == 1
