"""Bounded assignment feasibility via flows with lower bounds.

Several algorithms of the paper boil down to the same combinatorial core:
split the units of a set of *items* — each carrying a count — across their
*allowed groups* so that every group receives a number of units within a
prescribed interval ``[lo; hi]``:

* type satisfaction for rules that flatten to per-symbol intervals (RBE0 and
  its arbitrary-interval variant) — the edges sharing a label and a set of
  candidate target types form one item whose count is their number (plain
  graphs) or their summed multiplicity (compressed graphs, Section 6.1), and
  each symbol stays within its occurrence interval (the tractable validation
  of ShEx0 from [15]);
* witnesses of simulation for shape graphs — the flow-routing formulation used
  to prove Theorem 3.4, where every item has count 1.

The problem is solved exactly by a reduction to a feasible-circulation problem
with lower bounds, itself reduced to plain max-flow (Dinic's algorithm, in this
module).  The running time is polynomial in the number of items and groups and
does not depend on the counts.
"""

from __future__ import annotations

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


def feasible_split(
    items: Mapping[Item, Tuple[int, Sequence[Group]]],
    group_bounds: Mapping[Group, Tuple[int, Optional[int]]],
) -> Optional[Dict[Item, Dict[Group, int]]]:
    """Split every item's count across its allowed groups, respecting group bounds.

    ``items`` maps each item to ``(count, allowed groups)``: all ``count``
    units of the item must be placed, each in one of its groups.
    ``group_bounds`` maps each group to ``(lo, hi)`` where ``hi`` may be
    ``None`` for "unbounded"; a group's load is the number of units it
    receives.  Groups with ``lo > 0`` must reach their lower bound even if no
    item lists them — in that case the instance is infeasible.

    Returns ``item -> {group: units}`` (groups receiving no unit omitted), or
    ``None`` when the instance is infeasible.  The flow network has one node
    per item and per group whatever the counts, so the cost does not grow
    with them.
    """
    names = list(items)
    groups = list(group_bounds)
    total = sum(count for count, _ in items.values())
    # Node ids: source, sink, super-source, super-sink, then items, then groups.
    source, sink, super_source, super_sink = 0, 1, 2, 3
    item_nodes = {item: 4 + index for index, item in enumerate(names)}
    group_nodes = {group: 4 + len(names) + index for index, group in enumerate(groups)}
    arcs: List[Tuple[int, int, int]] = []
    # Lower-bound excesses for the standard circulation transformation.
    excess = [0] * (4 + len(names) + len(groups))

    def add_arc(u: int, v: int, lower: int, upper: int) -> None:
        if upper > lower:
            arcs.append((u, v, upper - lower))
        excess[v] += lower
        excess[u] -= lower

    for item in names:
        count, allowed = items[item]
        add_arc(source, item_nodes[item], count, count)
        for group in allowed:
            if group not in group_nodes:
                raise KeyError(f"item {item!r} allows unknown group {group!r}")
            add_arc(item_nodes[item], group_nodes[group], 0, count)
    for group in groups:
        lo, hi = group_bounds[group]
        hi_eff = total if hi is None else min(hi, total)
        if lo > hi_eff:
            # The group demands more units than could possibly arrive.
            return None
        add_arc(group_nodes[group], sink, lo, hi_eff)
    # Close the circulation.
    add_arc(sink, source, 0, total)

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

    # An item's units enter from the super-source and can only leave through
    # its item -> group arcs, so those arcs carry its split.
    split: Dict[Item, Dict[Group, int]] = {}
    for item in names:
        routed = flow.get(item_nodes[item], {})
        split[item] = {
            group: routed[group_nodes[group]]
            for group in dict.fromkeys(items[item][1])
            if routed.get(group_nodes[group])
        }
    return split


def feasible_assignment(
    allowed: Mapping[Item, Sequence[Group]],
    group_bounds: Mapping[Group, Tuple[int, Optional[int]]],
) -> Optional[Dict[Item, Group]]:
    """Assign every item to one of its allowed groups, respecting group bounds.

    ``allowed`` maps each item to the groups it may join; ``group_bounds`` maps
    each group to ``(lo, hi)`` where ``hi`` may be ``None`` for "unbounded".
    This is :func:`feasible_split` with every count equal to 1.

    Returns a complete assignment ``item -> group`` or ``None`` when the
    instance is infeasible.
    """
    split = feasible_split(
        {item: (1, groups) for item, groups in allowed.items()}, group_bounds
    )
    if split is None:
        return None
    return {item: next(iter(units)) for item, units in split.items()}
