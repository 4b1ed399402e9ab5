"""The fusion planner: partition invariants, kinds, ablation behaviour."""

import pytest

from repro.core.fusion import FusionConfig, FusionKind, plan_fusion
from repro.core.fusion.planner import _Planner
from repro.core.symbolic import ConstraintLevel, analyze_shapes
from repro.ir import GraphBuilder, f32
from repro.passes import LowerComposites, PassManager, default_pipeline

from ..conftest import toy_mlp_graph
from .cycle_reference import would_cycle_unpruned


def lowered_toy():
    b = toy_mlp_graph()
    PassManager(default_pipeline()).run(b.graph)
    return b.graph


def plan(graph, config=None, level=ConstraintLevel.FULL):
    return plan_fusion(graph, analyze_shapes(graph, level), config)


def test_plan_is_total_partition():
    graph = lowered_toy()
    p = plan(graph)
    covered = {n for g in p.groups for n in g.members}
    compute = {n for n in graph.nodes
               if n.op not in ("parameter", "constant")}
    assert covered == compute


def test_every_group_ordering_is_executable():
    graph = lowered_toy()
    p = plan(graph)
    position = {}
    for i, group in enumerate(p.ordered_groups()):
        for member in group.members:
            position[member] = i
    for node in graph.nodes:
        if node not in position:
            continue
        for operand in node.inputs:
            if operand in position:
                assert position[operand] <= position[node]


def test_softmax_layernorm_become_stitch():
    graph = lowered_toy()
    p = plan(graph)
    stitches = [g for g in p.groups if g.kind is FusionKind.STITCH]
    assert stitches, "expected at least one kStitch group"
    reduces = sum(1 for g in stitches for m in g.members if m.is_reduction)
    assert reduces >= 4  # layer_norm (2) + softmax (2)


def test_dot_is_library_singleton():
    graph = lowered_toy()
    p = plan(graph)
    lib = [g for g in p.groups if g.kind is FusionKind.LIBRARY]
    assert len(lib) == 1
    assert lib[0].members[0].op == "dot"
    assert lib[0].size == 1


def test_ablation_monotone_kernel_count():
    graph = lowered_toy()
    configs = [FusionConfig.none(), FusionConfig.loop_only(),
               FusionConfig.loop_and_input(), FusionConfig()]
    kernels = [plan(graph, c).num_kernels() for c in configs]
    assert kernels[0] >= kernels[1] >= kernels[2] >= kernels[3]
    assert kernels[0] > kernels[3]


def test_no_fusion_yields_singletons():
    graph = lowered_toy()
    p = plan(graph, FusionConfig.none())
    assert all(g.size == 1 for g in p.groups)


def test_constraint_level_affects_fusion():
    graph = lowered_toy()
    full = plan(graph, level=ConstraintLevel.FULL)
    none = plan(graph, level=ConstraintLevel.NONE)
    # Product-equality lets loop fusion cross the reshape boundaries,
    # giving at most the same number of groups.
    assert full.num_kernels() <= none.num_kernels()


def test_max_group_size_respected():
    graph = lowered_toy()
    config = FusionConfig(max_group_size=4)
    p = plan(graph, config)
    assert all(g.size <= 4 for g in p.groups)


def test_transpose_and_lone_reshape_are_metadata():
    b = GraphBuilder("g")
    s = b.sym("s")
    x = b.parameter("x", (s, 4, 8), f32)
    t = b.transpose(x, (0, 2, 1))
    d = b.dot(t, b.parameter("w", (4, 2), f32))
    b.outputs(d)
    p = plan(b.graph)
    kind_of = {g.members[0].op: g.kind for g in p.groups if g.size == 1}
    assert kind_of["transpose"] is FusionKind.METADATA


def test_cycle_avoidance():
    # a -> heavy(dot) -> c ; a -> c  : fusing {a, c} into a loop group
    # would put the dot both after a and before c => cycle.
    b = GraphBuilder("g")
    x = b.parameter("x", (8, 8), f32)
    a = b.exp(x)
    heavy = b.dot(a, b.parameter("w", (8, 8), f32))
    c = b.add(a, heavy)
    b.outputs(c)
    p = plan(b.graph)
    group_a = p.group_of[a]
    group_c = p.group_of[c]
    assert group_a is not group_c


def test_stitch_respects_max_reductions():
    graph = lowered_toy()
    config = FusionConfig(max_stitch_reductions=2)
    p = plan(graph, config)
    for g in p.groups:
        if g.kind is FusionKind.STITCH:
            reduces = sum(1 for m in g.members if m.is_reduction)
            assert reduces <= 2


def test_input_fusion_absorbs_producers():
    b = GraphBuilder("g")
    s = b.sym("s")
    x = b.parameter("x", (s, 64), f32)
    # elementwise chain feeding a NON-last-axis reduce (no stitch seed)
    e = b.mul(b.exp(x), x)
    r = b.reduce_sum(e, axes=0)
    b.outputs(r)
    p = plan(b.graph, FusionConfig.loop_and_input())
    group = p.group_of[r]
    assert group.kind is FusionKind.INPUT
    assert p.group_of[e] is group


def test_stats_shape():
    graph = lowered_toy()
    stats = plan(graph).stats()
    assert set(stats) == {"groups", "kernels", "fused_ops", "by_kind"}
    assert stats["kernels"] <= stats["groups"]


def test_unlowered_composites_become_singletons():
    b = toy_mlp_graph()
    PassManager([LowerComposites()]).run(b.graph)  # lowers everything
    b2 = toy_mlp_graph()  # fresh, unlowered
    p = plan(b2.graph, FusionConfig.none())
    ops = {g.members[0].op for g in p.groups}
    assert "softmax" in ops and "layer_norm" in ops


def test_cycle_check_sees_a_group_straddling_its_bound():
    """An early broadcast grouped with a late consumer: the group spans
    past the union's highest rank, and the only path back into the union
    is the jump from the late member down to the broadcast."""
    b = GraphBuilder("straddle")
    s = b.sym("s", hint=8)
    x = b.parameter("x", (s, 8), f32)
    bias = b.broadcast_to(b.scalar(2.0), (s, 8))
    joined = b.add(x, bias)
    early = b.exp(x)
    late = b.neg(early)
    b.outputs(joined, late)
    planner = _Planner(b.graph, analyze_shapes(b.graph), FusionConfig())
    rank = planner.rank
    assert rank[bias] < rank[early] < rank[joined] < rank[late]
    gid = planner._new_group(FusionKind.LOOP, [bias, late])
    # early -> late ~ bias -> joined: fusing early with joined cycles.
    assert would_cycle_unpruned(planner, {early}, {joined})
    assert planner._would_cycle({early}, {joined})
    assert not planner._would_cycle(set(planner.members[gid]), {joined})
