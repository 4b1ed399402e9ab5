"""The planner's cycle check without pruning, as a test oracle.

``would_cycle_unpruned`` is the walk ``_Planner._would_cycle`` did before
it learned to skip nodes ranked past its closed bound: it follows every
user and expands every assigned node to its whole group.  The pruned
check must return the same boolean on any grouping.
"""


def would_cycle_unpruned(planner, a_members: set, b_members: set) -> bool:
    union = a_members | b_members
    stack: list = []
    for node in union:
        for user in planner.users.get(node, ()):
            if user not in union:
                stack.append(user)
    seen: set = set()
    while stack:
        node = stack.pop()
        if node in union:
            return True
        if node in seen:
            continue
        gid = planner.assigned.get(node)
        group = planner.members[gid] if gid is not None else (node,)
        for peer in group:
            if peer in union:
                return True
            if peer in seen:
                continue
            seen.add(peer)
            stack.extend(planner.users.get(peer, ()))
    return False
