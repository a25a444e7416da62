"""Strongly connected components and condensation orders of graphs.

The maximal-typing fixpoint only propagates information *against* edge
direction: a node's types depend on the types of its successors.  Condensing
the graph into strongly connected components therefore yields a schedule —
process components sinks-first (reverse topological order of the condensation)
— under which every component can be driven to its local fixpoint exactly
once: by the time a component is examined, the types of all nodes outside it
that it depends on are already final.  :mod:`repro.engine.fixpoint` builds its
whole worklist discipline on this order.

The implementation is an iterative Tarjan (explicit stack, no recursion), so
graphs with very long paths do not hit the interpreter recursion limit.  Node
visiting order is fixed by ``sorted(nodes, key=repr)``, making the component
list — and everything scheduled from it — deterministic.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.graphs.graph import Graph

NodeId = Hashable


def strongly_connected_components(graph: Graph, nodes=None) -> List[Tuple[NodeId, ...]]:
    """The SCCs of ``graph``, in reverse topological order of the condensation.

    Every edge of the graph goes from a component listed *later* to one listed
    earlier (or stays inside one component); equivalently, sink components come
    first.  Components are tuples of nodes sorted by ``repr`` and the overall
    order is deterministic for a given graph.  A ``nodes`` set restricts all
    of this to the subgraph it induces, without building that subgraph.
    """
    region = graph.nodes if nodes is None else nodes
    order = sorted(region, key=repr)
    index: Dict[NodeId, int] = {}
    lowlink: Dict[NodeId, int] = {}
    on_stack: Dict[NodeId, bool] = {}
    stack: List[NodeId] = []
    components: List[Tuple[NodeId, ...]] = []
    # Successor lists are materialised once per node: a node's work item is
    # re-popped once per tree-edge descent, and rebuilding out_edges() there
    # would make high-out-degree hubs quadratic.
    successor_cache: Dict[NodeId, List[NodeId]] = {}
    counter = 0

    for root in order:
        if root in index:
            continue
        # Each work item is (node, iterator position over its successors).
        work: List[Tuple[NodeId, int]] = [(root, 0)]
        while work:
            node, edge_position = work.pop()
            if edge_position == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            successors = successor_cache.get(node)
            if successors is None:
                successors = [
                    edge.target for edge in graph.out_edges(node) if edge.target in region
                ]
                successor_cache[node] = successors
            for position in range(edge_position, len(successors)):
                target = successors[position]
                if target not in index:
                    # Descend; resume this node at the next successor later.
                    work.append((node, position + 1))
                    work.append((target, 0))
                    advanced = True
                    break
                if on_stack.get(target):
                    lowlink[node] = min(lowlink[node], index[target])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: List[NodeId] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(
                    tuple(sorted(component, key=repr)) if len(component) > 1
                    else (node,)
                )
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def backward_closure(graph: Graph, seeds) -> set:
    """Every node that can reach a seed (BFS over ``in_edges``).

    The dependency closure of the fixpoint's propagation direction: a node's
    types — and its kind, under counting bisimulation — depend only on its
    out-reachable subgraph, so after a change at the seeds this closure is
    exactly the set of nodes whose derived state may differ.  Seeds are
    included; seeds absent from the graph must be filtered by the caller.
    """
    closure = set(seeds)
    frontier: List[NodeId] = list(closure)
    while frontier:
        node = frontier.pop()
        for edge in graph.in_edges(node):
            if edge.source not in closure:
                closure.add(edge.source)
                frontier.append(edge.source)
    return closure


def condensation_order(graph: Graph) -> Tuple[List[Tuple[NodeId, ...]], Dict[NodeId, int]]:
    """``(components, component_of)`` with components sinks-first.

    ``component_of`` maps every node to the index of its component in the
    returned list, which is the order :func:`strongly_connected_components`
    produces (reverse topological: all successors of a node lie in components
    with an index less than or equal to the node's own).
    """
    components = strongly_connected_components(graph)
    component_of = {
        node: position for position, members in enumerate(components) for node in members
    }
    return components, component_of
