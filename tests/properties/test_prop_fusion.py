"""Fusion planner invariants over randomly generated graphs.

A random elementwise/reduce/reshape DAG is built over symbolic dims; for
every fusion configuration the plan must be a total acyclic partition, and
the compiled executable must agree with the reference interpreter — fusion
may never change semantics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompileOptions, compile_graph
from repro.core.fusion import FusionConfig, FusionKind, plan_fusion
from repro.core.fusion.planner import _Planner
from repro.core.symbolic import analyze_shapes
from repro.device import A10
from repro.interp import evaluate
from repro.runtime import ExecutionEngine

from ..fusion.cycle_reference import would_cycle_unpruned
from ..strategies import random_graph


configs = st.sampled_from([
    FusionConfig.none(), FusionConfig.loop_only(),
    FusionConfig.loop_and_input(), FusionConfig(),
    FusionConfig(loop_include_reshape=False),
    FusionConfig(max_group_size=3),
])


@given(st.data(), configs)
@settings(max_examples=60, deadline=None)
def test_plan_partition_invariants(data, config):
    graph = random_graph(data.draw)
    plan = plan_fusion(graph, analyze_shapes(graph), config)
    # totality: every compute node in exactly one group
    counts = {}
    for group in plan.groups:
        for member in group.members:
            counts[member] = counts.get(member, 0) + 1
    compute = [n for n in graph.nodes
               if n.op not in ("parameter", "constant")]
    assert all(counts.get(n, 0) == 1 for n in compute)
    # size limit respected
    assert all(g.size <= config.max_group_size for g in plan.groups)
    # executable order exists (ordered_groups respects dependencies)
    position = {}
    for i, group in enumerate(plan.ordered_groups()):
        for member in group.members:
            position[member] = i
    for node in compute:
        for operand in node.inputs:
            if operand in position:
                assert position[operand] <= position[node]


@given(st.data(), configs)
@settings(max_examples=30, deadline=None)
def test_fusion_never_changes_semantics(data, config):
    graph = random_graph(data.draw)
    exe = compile_graph(graph, CompileOptions(fusion=config))
    engine = ExecutionEngine(exe, A10)
    rng = np.random.default_rng(0)
    for s_value in (1, 5):
        inputs = {"x": rng.normal(size=(s_value, 8)).astype(np.float32)}
        expected = evaluate(graph, inputs)
        actual, __ = engine.run(inputs)
        for e, a in zip(expected, actual):
            assert np.allclose(e, a, atol=1e-4, rtol=1e-4)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pruned_cycle_check_matches_the_unpruned_walk(data):
    """Over any partial grouping, including merged groups, the rank-bounded
    cycle check answers exactly what the unpruned walk answers."""
    graph = random_graph(data.draw)
    planner = _Planner(graph, analyze_shapes(graph), FusionConfig())
    nodes = list(graph.nodes)
    draw_index = st.integers(0, len(nodes) - 1)
    for _ in range(data.draw(st.integers(0, 4))):
        picked = {nodes[i] for i in data.draw(st.lists(draw_index,
                                                       max_size=4))}
        picked -= planner.assigned.keys()
        if picked:
            planner._new_group(FusionKind.LOOP, list(picked))
    for _ in range(data.draw(st.integers(0, 2))):
        gids = sorted(planner.members)
        if len(gids) >= 2:
            into, other = data.draw(st.permutations(gids))[:2]
            planner._merge_groups(into, other)

    # What the planner fuses: whole groups or single unassigned nodes.
    operands = st.sampled_from(
        [set(members) for members in planner.members.values()]
        + [{n} for n in nodes if n not in planner.assigned])
    for _ in range(4):
        a, b = data.draw(operands), data.draw(operands)
        if a & b:
            continue
        assert planner._would_cycle(a, b) == \
            would_cycle_unpruned(planner, a, b)
