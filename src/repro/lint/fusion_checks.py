"""Fusion auditor: re-validate every planned group against the rules.

The planner *claims* each group satisfies the kLoop/kInput/kStitch
legality predicates; this auditor re-checks the claim independently,
re-deriving a fresh ``ShapeAnalysis`` at ``FULL`` strictness (anything the
planner could prove at a weaker level is provable here, so a clean plan
always audits clean) and asking the same questions
``core/fusion/legality.py`` answers — but from the *result* instead of
during construction:

- **L201** — a member is not eligible for its group's kind at all;
- **L202** — a kLoop group contains an internal producer→consumer edge
  whose iteration domains are not provably equal;
- **L203** — a kInput group does not have exactly one reduction root, or a
  member does not cover the root's input domain;
- **L204** — a kStitch group lacks two last-axis reductions over one row
  space, or a member has no stitch role in that row space;
- **L205** — a group exceeds a configured resource bound (warning);
- **L206** — the group-contracted graph has a cycle (plan not executable);
- **L207** — the plan is not a total partition of the compute nodes.

:func:`check_plan_structure` runs only the two plan-level checks (L206,
L207), which need no shape analysis; :func:`check_fusion_plan` runs them
plus every per-group audit.
"""

from __future__ import annotations

from ..core.fusion.kinds import FusionConfig, FusionKind, FusionPlan
from ..core.fusion.legality import (is_last_axis_reduce, is_loop_fusible,
                                    loop_edge_compatible, reduce_row_space,
                                    stitch_member_role)
from ..core.symbolic import ConstraintLevel, ShapeAnalysis
from ..core.symbolic.analysis import collect_node_facts
from ..ir.ops import OpCategory
from .diagnostics import DiagnosticSink

__all__ = ["check_fusion_plan", "check_plan_structure"]


def _tolerant_full_analysis(graph) -> ShapeAnalysis:
    """FULL-level analysis that survives contradictory graphs.

    ``analyze_shapes`` raises on the first contradictory fact, but the
    auditor must keep going on broken artifacts — the symbolic analyzer
    reports the contradictions themselves; here we only need the facts
    that *did* collect cleanly.
    """
    analysis = ShapeAnalysis(graph, ConstraintLevel.FULL)
    for node in graph.nodes:
        try:
            collect_node_facts(node, analysis.store, full=True)
        except Exception:  # noqa: BLE001 - reported by check_symbols
            continue
    return analysis


def check_fusion_plan(plan: FusionPlan,
                      analysis: ShapeAnalysis | None = None,
                      config: FusionConfig | None = None,
                      sink: DiagnosticSink | None = None
                      ) -> DiagnosticSink:
    """Audit every group of ``plan``; returns the sink.

    ``analysis`` defaults to a freshly derived FULL-level analysis so the
    audit never trusts the object the planner consumed; ``config`` defaults
    to the stock :class:`FusionConfig` bounds.
    """
    sink = check_plan_structure(plan, sink)
    if analysis is None:
        analysis = _tolerant_full_analysis(plan.graph)
    config = config or FusionConfig()
    for group in plan.groups:
        _check_group(group, plan, analysis, config, sink)
    return sink


def check_plan_structure(plan: FusionPlan,
                         sink: DiagnosticSink | None = None
                         ) -> DiagnosticSink:
    """The plan-level checks alone: a total partition of the compute
    nodes (L207) whose group-contracted graph is acyclic (L206)."""
    sink = sink if sink is not None else DiagnosticSink()
    _check_partition(plan, sink)
    _check_executability(plan, sink)
    return sink


# ---------------------------------------------------------------------------
# plan-level checks
# ---------------------------------------------------------------------------

def _check_partition(plan, sink) -> None:
    planned = {m for g in plan.groups for m in g.members}
    for node in plan.graph.nodes:
        if node.op in ("parameter", "constant"):
            continue
        if node not in planned:
            sink.emit(
                "L207",
                "compute node is covered by no fusion group",
                node=node,
                fix_hint="the singleton phase must sweep up every node "
                         "the earlier phases skipped")


def _check_executability(plan, sink) -> None:
    try:
        plan.ordered_groups()
    except Exception as exc:  # noqa: BLE001 - cycle or corrupt bookkeeping
        sink.emit(
            "L206",
            f"ordered_groups failed: {exc}",
            fix_hint="a merge skipped the acyclicity check on the "
                     "group-contracted graph")


# ---------------------------------------------------------------------------
# per-group checks
# ---------------------------------------------------------------------------

def _check_group(group, plan, analysis, config, sink) -> None:
    if group.size > config.max_group_size:
        sink.emit(
            "L205",
            f"{group.size} members exceed max_group_size="
            f"{config.max_group_size}",
            group=group.group_id)
    kind = group.kind
    if kind is FusionKind.LOOP:
        _check_loop_group(group, analysis, config, sink)
    elif kind is FusionKind.INPUT:
        _check_input_group(group, analysis, config, sink)
    elif kind is FusionKind.STITCH:
        _check_stitch_group(group, analysis, config, sink)
    elif kind is FusionKind.LIBRARY:
        _check_members(group, sink, lambda n: n.category in (
            OpCategory.DOT, OpCategory.CONV),
            "kLibrary member is not a library-backed op")
    elif kind is FusionKind.METADATA:
        _check_members(group, sink, _is_metadata_like,
                       "kMetadata member moves data at run time")
    elif kind is FusionKind.HOST:
        _check_members(group, sink, _is_host_like,
                       "kHost member is not a host-placed shape "
                       "computation")
    elif kind is FusionKind.SINGLETON:
        if group.size != 1:
            sink.emit(
                "L201",
                f"kSingleton group has {group.size} members",
                group=group.group_id)


def _check_members(group, sink, predicate, message) -> None:
    for member in group.members:
        if not predicate(member):
            sink.emit("L201", message, node=member, group=group.group_id)


def _is_metadata_like(node) -> bool:
    return (node.category in (OpCategory.RESHAPE, OpCategory.TRANSPOSE)
            or node.op == "slice")


def _is_host_like(node) -> bool:
    return (node.attrs.get("_placement") == "host"
            or node.category is OpCategory.SHAPE)


def _check_loop_group(group, analysis, config, sink) -> None:
    include_reshape = config.loop_include_reshape
    members = group.member_set()
    for member in group.members:
        if not is_loop_fusible(member, include_reshape):
            sink.emit(
                "L201",
                f"op {member.op!r} may not join a kLoop kernel",
                node=member, group=group.group_id)
    for consumer in group.members:
        for producer in consumer.inputs:
            if producer not in members:
                continue
            if not (is_loop_fusible(producer, include_reshape)
                    and is_loop_fusible(consumer, include_reshape)):
                continue  # already reported as L201
            if not loop_edge_compatible(producer, consumer, analysis,
                                        include_reshape):
                sink.emit(
                    "L202",
                    f"edge {producer.short()} -> {consumer.short()} "
                    f"joins unproven iteration domains "
                    f"{tuple(producer.shape)} vs {tuple(consumer.shape)}",
                    node=consumer, group=group.group_id,
                    fix_hint="the merge needed a product-equality "
                             "constraint the analysis cannot derive")


def _check_input_group(group, analysis, config, sink) -> None:
    reductions = [m for m in group.members if m.is_reduction]
    if len(reductions) != 1:
        sink.emit(
            "L203",
            f"kInput group has {len(reductions)} reductions "
            f"(exactly one root required)",
            group=group.group_id)
        return
    root = reductions[0]
    domain = root.inputs[0].shape
    for member in group.members:
        if member is root:
            continue
        if not is_loop_fusible(member, config.loop_include_reshape):
            sink.emit(
                "L201",
                f"op {member.op!r} may not feed a kInput kernel",
                node=member, group=group.group_id)
            continue
        if member.category is OpCategory.BROADCAST:
            continue  # broadcasts are index mappings inside the kernel
        if not analysis.same_num_elements(member.shape, domain):
            sink.emit(
                "L203",
                f"member domain {tuple(member.shape)} not provably equal "
                f"to the root's input domain {tuple(domain)}",
                node=member, group=group.group_id)


def _check_stitch_group(group, analysis, config, sink) -> None:
    reductions = [m for m in group.members if m.is_reduction]
    last_axis = [m for m in reductions if is_last_axis_reduce(m)]
    for member in reductions:
        if not is_last_axis_reduce(member):
            sink.emit(
                "L204",
                "stitched reduction is not a last-axis reduce",
                node=member, group=group.group_id)
    if len(last_axis) < 2:
        sink.emit(
            "L204",
            f"kStitch group has {len(last_axis)} last-axis reductions "
            f"(needs at least 2 to be worth a stitched kernel)",
            group=group.group_id)
        return
    if len(last_axis) > config.max_stitch_reductions:
        sink.emit(
            "L205",
            f"{len(last_axis)} stitched reductions exceed "
            f"max_stitch_reductions={config.max_stitch_reductions}",
            group=group.group_id)
    rows, reduced = reduce_row_space(last_axis[0])
    for member in group.members:
        role = stitch_member_role(member, rows, reduced, analysis)
        if role is None:
            sink.emit(
                "L204",
                f"member has no role in row space {tuple(rows)} x "
                f"{reduced}",
                node=member, group=group.group_id,
                fix_hint="every member must be a same-row-space reduce, "
                         "a full-domain elementwise op, or a per-row "
                         "scalar")
