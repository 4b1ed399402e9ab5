"""Graph construction, queries, and mutation helpers."""

import numpy as np
import pytest

from repro.ir import GraphBuilder, VerificationError, f32, verify


def small_graph():
    b = GraphBuilder("g")
    x = b.parameter("x", (4, 8), f32)
    y = b.parameter("y", (4, 8), f32)
    s = b.add(x, y)
    t = b.mul(s, s)
    b.outputs(t)
    return b, x, y, s, t


def test_users_map():
    b, x, y, s, t = small_graph()
    users = b.graph.users()
    assert users[x] == [s]
    assert users[s] == [t, t] or users[s] == [t]
    assert users[t] == []


def test_param_lookup():
    b, x, *_ = small_graph()
    assert b.graph.param_named("x") is x
    assert b.graph.param_names() == ["x", "y"]
    with pytest.raises(KeyError):
        b.graph.param_named("zzz")


def test_replace_all_uses_and_prune():
    b, x, y, s, t = small_graph()
    # replace s with x everywhere: t = x * x, s becomes dead
    count = b.graph.replace_all_uses(s, x)
    assert count >= 1
    removed = b.graph.prune()
    assert removed == 1
    assert s not in list(b.graph)
    verify(b.graph)


def test_replace_in_outputs():
    b, x, y, s, t = small_graph()
    b.graph.replace_all_uses(t, s)
    assert b.graph.outputs == [s]


def test_redirect_equals_sequential_replace_all_uses():
    b = GraphBuilder("g")
    x = b.parameter("x", (4, 8), f32)
    e1, e2 = b.exp(x), b.exp(x)
    n1, n2 = b.neg(e1), b.neg(e2)
    m = b.mul(n1, n2)
    b.outputs(m, e2, b.add(e2, e2), e2)
    duplicates = {e2.id: e1.id, n2.id: n1.id}

    def rewritten(batched: bool):
        graph = b.graph.clone()
        by_id = {node.id: node for node in graph}
        mapping = {by_id[old]: by_id[new]
                   for old, new in duplicates.items()}
        if batched:
            count = graph.redirect(mapping)
        else:
            count = sum(graph.replace_all_uses(old, new)
                        for old, new in mapping.items())
        return count, [[i.id for i in n.inputs] for n in graph], \
            [o.id for o in graph.outputs]

    count, inputs, outputs = rewritten(batched=True)
    assert (count, inputs, outputs) == rewritten(batched=False)
    assert count == 6
    assert outputs == [m.id, e1.id, m.id + 1, e1.id]


def test_prune_keeps_params():
    b = GraphBuilder("g")
    x = b.parameter("x", (4,), f32)
    unused = b.parameter("unused", (4,), f32)
    b.outputs(b.relu(x))
    b.graph.prune()
    assert unused in b.graph.params
    assert unused in list(b.graph)


def test_clone_is_deep():
    b, x, y, s, t = small_graph()
    clone = b.graph.clone()
    assert len(clone) == len(b.graph)
    assert clone.outputs[0] is not t
    assert clone.outputs[0].op == "mul"
    # mutating the clone leaves the original intact
    clone.replace_all_uses(clone.outputs[0], clone.params[0])
    assert b.graph.outputs[0] is t
    verify(clone)
    verify(b.graph)


def test_normalize_order_restores_topology():
    b, x, y, s, t = small_graph()
    b.graph.nodes.reverse()
    b.graph.normalize_order()
    verify(b.graph)


def test_by_op_and_find():
    b, *_ = small_graph()
    assert len(b.graph.by_op("add")) == 1
    assert len(b.graph.find(lambda n: n.is_elementwise)) == 2


def test_duplicate_param_names_caught_by_verifier():
    b = GraphBuilder("g")
    b.parameter("x", (4,), f32)
    b.parameter("x", (4,), f32)
    b.outputs(b.graph.params[0])
    with pytest.raises(VerificationError):
        verify(b.graph)


def test_len_and_iter():
    b, *_ = small_graph()
    assert len(b.graph) == 4
    assert [n.op for n in b.graph] == ["parameter", "parameter", "add",
                                       "mul"]


def test_constant_helper():
    b = GraphBuilder("g")
    c = b.graph.constant(np.ones((2, 2), dtype=np.float32))
    assert c.op == "constant"
    assert c.shape == (2, 2)
