"""The shape-propagation-based fusion planner.

Given a lowered graph and its :class:`ShapeAnalysis`, the planner partitions
all compute nodes into fusion groups in four phases:

1. **kStitch** — grow clusters around last-axis reductions that share a row
   space; a cluster with two or more reductions becomes a stitch kernel
   (softmax, layer-norm, attention-score normalisation, ...).
2. **kInput** — remaining reductions absorb the elementwise producers that
   feed them (one pass over the reduce's input domain).
3. **kLoop** — remaining elementwise/broadcast/reshape nodes merge greedily
   along producer→consumer edges whenever their iteration domains are
   *provably* equal under the symbolic constraints.
4. **Singletons** — whatever is left becomes a library call (``dot``,
   ``conv2d``), a standalone kernel, a free metadata op (lone ``reshape``)
   or a host computation.

Every merge is guarded by an acyclicity check on the group-contracted
graph, so :meth:`FusionPlan.ordered_groups` is always executable.
"""

from __future__ import annotations

from ...ir.graph import Graph
from ...ir.node import Node
from ...ir.ops import OpCategory
from ..symbolic import ShapeAnalysis
from .kinds import FusionConfig, FusionGroup, FusionKind, FusionPlan
from .legality import (is_last_axis_reduce, is_loop_fusible,
                       loop_edge_compatible, reduce_row_space,
                       stitch_member_role)

__all__ = ["plan_fusion"]


def plan_fusion(graph: Graph, analysis: ShapeAnalysis,
                config: FusionConfig | None = None) -> FusionPlan:
    """Partition ``graph`` into fusion groups under ``config``."""
    config = config or FusionConfig()
    planner = _Planner(graph, analysis, config)
    return planner.run()


class _Planner:
    def __init__(self, graph: Graph, analysis: ShapeAnalysis,
                 config: FusionConfig) -> None:
        self.graph = graph
        self.analysis = analysis
        self.config = config
        self.users = graph.users()
        self.position = {n: i for i, n in enumerate(graph.nodes)}
        self.assigned: dict[Node, int] = {}
        self.members: dict[int, list[Node]] = {}
        self.kinds: dict[int, FusionKind] = {}
        self._next_group = 0
        # The cycle check works on a topological rank that puts each node
        # just before its first user.  An edge always climbs, since a
        # node's users come after it in graph order; unlike graph order,
        # the rank keeps a constant-bias broadcast next to the consumer
        # it feeds, so groups span few ranks.
        last = len(graph.nodes)
        order = sorted(graph.nodes, key=lambda n: (
            min((self.position[u] for u in self.users[n]), default=last),
            self.position[n]))
        self.rank = {node: r for r, node in enumerate(order)}
        #: rank -> the ranks of that node's users.
        self._users_at = [[self.rank[u] for u in self.users[n]]
                          for n in order]
        #: rank -> id of the group holding that node, or None.
        self._group_at: list = [None] * len(order)
        #: group id -> its members' ranks.
        self._ranks: dict[int, list[int]] = {}
        # Fenwick tree over ranks: the prefix maximum up to rank r is the
        # highest rank of any group whose lowest rank is at most r.  A
        # merge only widens a span, so entries are raised and never
        # removed: a merged-away span lies inside its successor's.
        self._reach = [-1] * (len(order) + 1)

    # -- bookkeeping -----------------------------------------------------

    def _new_group(self, kind: FusionKind, nodes: list[Node]) -> int:
        gid = self._next_group
        self._next_group += 1
        self.members[gid] = list(nodes)
        self.kinds[gid] = kind
        ranks = self._ranks[gid] = [self.rank[node] for node in nodes]
        for node, rank in zip(nodes, ranks):
            self.assigned[node] = gid
            self._group_at[rank] = gid
        self._widen(min(ranks), max(ranks))
        return gid

    def _merge_groups(self, into: int, other: int) -> None:
        for node in self.members[other]:
            self.assigned[node] = into
        self.members[into].extend(self.members[other])
        del self.members[other]
        del self.kinds[other]
        ranks, moved = self._ranks[into], self._ranks.pop(other)
        for rank in moved:
            self._group_at[rank] = into
        ranks.extend(moved)
        self._widen(min(ranks), max(ranks))

    def _widen(self, lo: int, hi: int) -> None:
        """Record a group spanning ranks ``lo..hi``."""
        reach = self._reach
        i = lo + 1
        while i < len(reach):
            if reach[i] < hi:
                reach[i] = hi
            i += i & -i

    def _closed_bound(self, bound: int) -> int:
        """The least rank ``>= bound`` that no group's span straddles."""
        reach = self._reach
        while True:
            top, i = bound, bound + 1
            while i:
                if reach[i] > top:
                    top = reach[i]
                i &= i - 1
            if top == bound:
                return bound
            bound = top

    def _would_cycle(self, a_members: set, b_members: set) -> bool:
        """True iff fusing ``a_members | b_members`` into one group would
        cycle the group-contracted graph: some path leaves the union and
        re-enters it.  Intermediate nodes already assigned to a group
        are expanded to their whole group — two co-members are mutually
        reachable in the contracted graph without any edge between them,
        which a plain node-level reachability check cannot see.

        The walk skips every node ranked past a bound no path comes back
        under.  Edges only climb in rank and only a jump within a group
        descends, so the bound starts at the union's highest rank and is
        raised over every group that straddles it.  Past the closed
        bound no group reaches back below it, so no path does either.
        """
        rank = self.rank
        union = {rank[node] for node in a_members}
        union.update(rank[node] for node in b_members)
        bound = self._closed_bound(max(union))
        users_at, group_at, ranks = \
            self._users_at, self._group_at, self._ranks
        stack = [user for r in union for user in users_at[r]
                 if user not in union]
        seen: set = set()
        while stack:
            r = stack.pop()
            if r > bound or r in seen:
                continue
            if r in union:
                return True
            gid = group_at[r]
            for peer in ranks[gid] if gid is not None else (r,):
                if peer in union:
                    return True
                if peer not in seen:
                    seen.add(peer)
                    stack.extend(users_at[peer])
        return False

    # -- driver ------------------------------------------------------------

    def run(self) -> FusionPlan:
        if self.config.enable_stitch:
            self._plan_stitch()
        if self.config.enable_input:
            self._plan_input()
        if self.config.enable_loop:
            self._plan_loop()
        self._plan_singletons()
        groups = [FusionGroup(gid, self.kinds[gid],
                              self._in_topo_order(nodes))
                  for gid, nodes in self.members.items()]
        return FusionPlan(self.graph, groups)

    def _in_topo_order(self, nodes: list[Node]) -> list[Node]:
        return sorted(nodes, key=self.position.__getitem__)

    # -- phase 1: kStitch ---------------------------------------------------

    def _plan_stitch(self) -> None:
        for seed in self.graph.nodes:
            if seed in self.assigned or not is_last_axis_reduce(seed):
                continue
            rows, reduced = reduce_row_space(seed)
            cluster: set[Node] = {seed}
            reduce_count = 1
            grew = True
            while grew and len(cluster) < self.config.max_group_size:
                grew = False
                for candidate in self._neighbors(cluster):
                    if candidate in self.assigned or candidate in cluster:
                        continue
                    role = stitch_member_role(candidate, rows, reduced,
                                              self.analysis)
                    if role is None:
                        continue
                    if role == "reduce" and reduce_count >= \
                            self.config.max_stitch_reductions:
                        continue
                    if len(cluster) >= self.config.max_group_size:
                        break
                    if self._would_cycle(cluster, {candidate}):
                        continue
                    cluster.add(candidate)
                    if role == "reduce":
                        reduce_count += 1
                    grew = True
            if reduce_count >= 2:
                self._new_group(FusionKind.STITCH, list(cluster))
            # A cluster with a single reduce is better served by kInput
            # fusion (phase 2); leave its nodes unassigned.

    def _neighbors(self, cluster: set) -> list[Node]:
        found: list[Node] = []
        seen: set[Node] = set()
        for node in cluster:
            for operand in node.inputs:
                if operand not in cluster and operand not in seen:
                    seen.add(operand)
                    found.append(operand)
            for user in self.users.get(node, ()):
                if user not in cluster and user not in seen:
                    seen.add(user)
                    found.append(user)
        return found

    # -- phase 2: kInput -------------------------------------------------------

    def _plan_input(self) -> None:
        for root in self.graph.nodes:
            if root in self.assigned or not root.is_reduction:
                continue
            domain = root.inputs[0].shape
            group: set[Node] = {root}
            frontier = [op for op in root.inputs]
            while frontier and len(group) < self.config.max_group_size:
                candidate = frontier.pop()
                if candidate in self.assigned or candidate in group:
                    continue
                if not is_loop_fusible(
                        candidate, self.config.loop_include_reshape):
                    continue
                compatible = (
                    candidate.category is OpCategory.BROADCAST
                    or self.analysis.same_num_elements(candidate.shape,
                                                       domain))
                if not compatible:
                    continue
                if self._would_cycle(group, {candidate}):
                    continue
                group.add(candidate)
                frontier.extend(candidate.inputs)
            if len(group) >= 2:
                self._new_group(FusionKind.INPUT, list(group))
            # A bare reduce stays unassigned; phase 4 makes it a singleton.

    # -- phase 3: kLoop --------------------------------------------------------

    def _plan_loop(self) -> None:
        # Greedy edge contraction in topological order.  Group identity is
        # tracked through self.assigned; unassigned fusible nodes start as
        # fresh single-member loop groups on first touch.
        include_reshape = self.config.loop_include_reshape
        for node in self.graph.nodes:
            if not is_loop_fusible(node, include_reshape) \
                    or node in self.assigned:
                continue
            self._new_group(FusionKind.LOOP, [node])
        for producer in self.graph.nodes:
            gid_p = self.assigned.get(producer)
            if gid_p is None or self.kinds.get(gid_p) is not FusionKind.LOOP:
                continue
            for consumer in self.users.get(producer, ()):
                gid_p = self.assigned[producer]  # may change as we merge
                gid_c = self.assigned.get(consumer)
                if gid_c is None or gid_c == gid_p:
                    continue
                if self.kinds.get(gid_c) is not FusionKind.LOOP:
                    continue
                if not loop_edge_compatible(producer, consumer,
                                            self.analysis,
                                            include_reshape):
                    continue
                size = len(self.members[gid_p]) + len(self.members[gid_c])
                if size > self.config.max_group_size:
                    continue
                a = set(self.members[gid_p])
                b = set(self.members[gid_c])
                if self._would_cycle(a, b):
                    continue
                self._merge_groups(gid_p, gid_c)
        # Loop groups that contain only metadata ops need no kernel.
        for gid, nodes in self.members.items():
            if self.kinds[gid] is not FusionKind.LOOP:
                continue
            if all(n.category is OpCategory.RESHAPE for n in nodes):
                self.kinds[gid] = FusionKind.METADATA

    # -- phase 4: singletons ------------------------------------------------------

    def _plan_singletons(self) -> None:
        for node in self.graph.nodes:
            if node in self.assigned:
                continue
            if node.op in ("parameter", "constant"):
                continue  # sources are not executed
            if node.attrs.get("_placement") == "host":
                self._new_group(FusionKind.HOST, [node])
            elif node.category is OpCategory.SHAPE:
                self._new_group(FusionKind.HOST, [node])
            elif node.category in (OpCategory.DOT, OpCategory.CONV):
                self._new_group(FusionKind.LIBRARY, [node])
            elif node.category is OpCategory.RESHAPE or self._is_view(node):
                self._new_group(FusionKind.METADATA, [node])
            else:
                self._new_group(FusionKind.SINGLETON, [node])

    @staticmethod
    def _is_view(node: Node) -> bool:
        """Ops every stack implements as zero-copy views / folds into the
        consuming GEMM (strided batched matmul): transpose and full-dim
        slices.  Charging them as kernels would penalise every executor
        identically and only add noise."""
        return node.category is OpCategory.TRANSPOSE or node.op == "slice"
