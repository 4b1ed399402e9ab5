"""Buffer planning: liveness, slot assignment, reuse accounting."""

import numpy as np

from repro.core import compile_graph
from repro.device import A10
from repro.runtime import ExecutionEngine, plan_buffers
from repro.runtime.memory import BufferPlan, Interval
from repro.ir import GraphBuilder, f32
from repro.lint import check_buffer_plan

from ..conftest import toy_mlp_graph, toy_mlp_inputs


def interval(node_id, start, end, size=4):
    return Interval(node_id=node_id, shape=(1,), dtype_size=size,
                    start=start, end=end)


def test_disjoint_intervals_share_slot():
    plan = BufferPlan([interval(0, 0, 1), interval(1, 2, 3)])
    assert plan.num_slots == 1


def test_overlapping_intervals_get_distinct_slots():
    plan = BufferPlan([interval(0, 0, 5), interval(1, 1, 2),
                       interval(2, 3, 4)])
    # 0 overlaps both; 1 and 2 are disjoint from each other
    assert plan.num_slots == 2
    assert check_buffer_plan(plan).by_code("L301") == []


def test_verify_catches_bad_assignment():
    plan = BufferPlan([interval(0, 0, 5), interval(1, 1, 2)])
    plan.intervals[1].slot = plan.intervals[0].slot
    assert check_buffer_plan(plan).by_code("L301")


def test_evaluate_peak_le_naive():
    plan = BufferPlan([interval(0, 0, 1), interval(1, 2, 3),
                       interval(2, 1, 2)])
    stats = plan.evaluate({})
    assert stats["peak_bytes"] <= stats["naive_bytes"]
    assert stats["reuse_factor"] >= 1.0
    assert stats["values"] == 3


def test_plan_from_compiled_model():
    b = toy_mlp_graph()
    exe = compile_graph(b.graph)
    assert exe.buffer_plan is not None
    assert check_buffer_plan(exe.buffer_plan).by_code("L301") == []
    stats = exe.buffer_plan.evaluate({"batch": 4, "seq": 8, "bs": 32})
    assert stats["peak_bytes"] <= stats["naive_bytes"]
    assert stats["values"] >= 1


def test_graph_outputs_live_to_end():
    b = GraphBuilder("g")
    x = b.parameter("x", (4,), f32)
    first = b.exp(x)
    second = b.neg(first)
    b.outputs(second, first)  # first is an output despite early use
    exe = compile_graph(b.graph)
    plan = exe.buffer_plan
    end = len(exe.kernels)
    out_ids = {n.id for n in exe.graph.outputs}
    for iv in plan.intervals:
        if iv.node_id in out_ids:
            assert iv.end == end


def test_engine_reports_memory(rng):
    b = toy_mlp_graph()
    exe = compile_graph(b.graph)
    engine = ExecutionEngine(exe, A10)
    __, stats = engine.run(toy_mlp_inputs(rng, 4, 8))
    memory = stats.details["memory"]
    assert memory["peak_bytes"] <= memory["naive_bytes"]
    # bigger inputs -> bigger peak
    __, stats2 = engine.run(toy_mlp_inputs(rng, 8, 16))
    assert stats2.details["memory"]["peak_bytes"] > memory["peak_bytes"]


def test_reuse_on_long_chain():
    """A long elementwise chain of unfused values reuses ping-pong
    buffers: peak stays O(2 buffers) while naive grows linearly."""
    b = GraphBuilder("g")
    x = b.parameter("x", (1024,), f32)
    value = x
    # alternate reduce and exp so fusion cannot swallow the whole chain
    for i in range(8):
        value = b.exp(value)
        value = b.reshape(b.reduce_sum(b.broadcast_to(
            value, (2, 1024)), axes=0), (1024,))
    b.outputs(value)
    from repro.core import CompileOptions, FusionConfig
    exe = compile_graph(b.graph, CompileOptions(
        fusion=FusionConfig.none()))
    stats = exe.buffer_plan.evaluate({})
    assert stats["reuse_factor"] > 2.0
