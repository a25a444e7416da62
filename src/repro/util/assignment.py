"""Bounded assignment feasibility via flows with lower bounds.

Several algorithms of the paper boil down to the same combinatorial core:
assign each of a set of *items* to exactly one of its *allowed groups* so that
every group receives a number of items within a prescribed interval
``[lo; hi]``:

* type satisfaction for RBE0 definitions — every outgoing edge must be matched
  to an atom of the definition while each atom group stays within its
  occurrence interval (this is the tractable validation of ShEx0 from [15]);
* witnesses of simulation for shape graphs — the flow-routing formulation used
  to prove Theorem 3.4.

The problem is solved exactly by a reduction to a feasible-circulation problem
with lower bounds, itself reduced to plain max-flow (Dinic's algorithm, in this
module).  The running time is polynomial in the number of items and groups.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

Item = Hashable
Group = Hashable


def _max_flow(
    node_count: int, arcs: Sequence[Tuple[int, int, int]], source: int, sink: int
) -> Tuple[int, Dict[int, Dict[int, int]]]:
    """Dinic's maximum flow over nodes ``0..node_count-1``.

    ``arcs`` lists ``(u, v, capacity)``.  Arc ``i`` of the residual graph is
    paired with its reverse at ``i ^ 1``, whose residual capacity is the flow
    sent along arc ``i``.  Returns the flow value and the positive flows as
    ``{u: {v: units}}``, parallel arcs summed.
    """
    heads: List[int] = []
    caps: List[int] = []
    out: List[List[int]] = [[] for _ in range(node_count)]
    for u, v, capacity in arcs:
        out[u].append(len(heads))
        heads.append(v)
        caps.append(capacity)
        out[v].append(len(heads))
        heads.append(u)
        caps.append(0)
    value = 0
    while True:
        level = [-1] * node_count  # BFS layers of the residual graph
        level[source] = 0
        queue = [source]
        for u in queue:
            for arc in out[u]:
                if caps[arc] and level[heads[arc]] < 0:
                    level[heads[arc]] = level[u] + 1
                    queue.append(heads[arc])
        if level[sink] < 0:
            break
        # Blocking flow: depth-first along layer-increasing arcs; ``cursor``
        # skips arcs already found saturated or leading to dead ends.
        cursor = [0] * node_count
        path: List[int] = []
        u = source
        while True:
            if u == sink:
                pushed = min(caps[arc] for arc in path)
                for arc in path:
                    caps[arc] -= pushed
                    caps[arc ^ 1] += pushed
                value += pushed
                path.clear()
                u = source
                continue
            arcs_u = out[u]
            while cursor[u] < len(arcs_u):
                arc = arcs_u[cursor[u]]
                if caps[arc] and level[heads[arc]] == level[u] + 1:
                    path.append(arc)
                    u = heads[arc]
                    break
                cursor[u] += 1
            else:
                if u == source:
                    break
                level[u] = -1  # dead end: never enter it again this phase
                u = heads[path.pop() ^ 1]
                cursor[u] += 1
    flow: Dict[int, Dict[int, int]] = {}
    for arc in range(0, len(heads), 2):
        if caps[arc + 1]:
            row = flow.setdefault(heads[arc + 1], {})
            row[heads[arc]] = row.get(heads[arc], 0) + caps[arc + 1]
    return value, flow


def feasible_assignment(
    allowed: Mapping[Item, Sequence[Group]],
    group_bounds: Mapping[Group, Tuple[int, Optional[int]]],
) -> Optional[Dict[Item, Group]]:
    """Assign every item to one of its allowed groups, respecting group bounds.

    ``allowed`` maps each item to the groups it may join; ``group_bounds`` maps
    each group to ``(lo, hi)`` where ``hi`` may be ``None`` for "unbounded".
    Groups with ``lo > 0`` must reach their lower bound even if no item lists
    them — in that case the instance is infeasible.

    Returns a complete assignment ``item -> group`` or ``None`` when the
    instance is infeasible.
    """
    items = list(allowed)
    groups = list(group_bounds)
    if not items and all(lo == 0 for lo, _ in group_bounds.values()):
        return {}
    if not all(allowed.values()):
        return None

    upper_cap = len(items)  # no group can receive more items than exist
    # Node ids: source, sink, super-source, super-sink, then items, then groups.
    source, sink, super_source, super_sink = 0, 1, 2, 3
    item_nodes = {item: 4 + index for index, item in enumerate(items)}
    group_nodes = {group: 4 + len(items) + index for index, group in enumerate(groups)}
    arcs: List[Tuple[int, int, int]] = []
    # Lower-bound excesses for the standard circulation transformation.
    excess = [0] * (4 + len(items) + len(groups))

    def add_arc(u: int, v: int, lower: int, upper: int) -> None:
        if upper > lower:
            arcs.append((u, v, upper - lower))
        excess[v] += lower
        excess[u] -= lower

    for item in items:
        add_arc(source, item_nodes[item], 1, 1)
        for group in allowed[item]:
            if group not in group_nodes:
                raise KeyError(f"item {item!r} allows unknown group {group!r}")
            add_arc(item_nodes[item], group_nodes[group], 0, 1)
    for group in groups:
        lo, hi = group_bounds[group]
        hi_eff = upper_cap if hi is None else min(hi, upper_cap)
        if lo > hi_eff:
            # The group demands more items than could possibly arrive.
            return None
        add_arc(group_nodes[group], sink, lo, hi_eff)
    # Close the circulation.
    add_arc(sink, source, 0, upper_cap)

    required = 0
    for node, value in enumerate(excess):
        if value > 0:
            arcs.append((super_source, node, value))
            required += value
        elif value < 0:
            arcs.append((node, super_sink, -value))
    flow_value, flow = _max_flow(len(excess), arcs, super_source, super_sink)
    if flow_value != required:
        return None

    # Each item's one unit enters from the super-source and can only leave
    # through an item -> group arc, so the flow names a group for every item.
    assignment: Dict[Item, Group] = {}
    for item in items:
        routed = flow.get(item_nodes[item], {})
        for group in allowed[item]:
            if routed.get(group_nodes[group]):
                assignment[item] = group
                break
    # Final verification (defensive): every item placed, every group in bounds.
    load = Counter(assignment.values())
    if len(assignment) != len(items) or any(
        load[group] < lo or (hi is not None and load[group] > hi)
        for group, (lo, hi) in group_bounds.items()
    ):
        return None
    return assignment
