"""Strongly connected components and condensation orders of graphs.

The maximal-typing fixpoint only propagates information *against* edge
direction: a node's types depend on the types of its successors.  Condensing
the graph into strongly connected components therefore yields a schedule —
process components sinks-first (reverse topological order of the condensation)
— under which every component can be driven to its local fixpoint exactly
once: by the time a component is examined, the types of all nodes outside it
that it depends on are already final.

The nodes that reach no cycle are released one by one by Kahn's algorithm
(:func:`release`), each its own component; :mod:`repro.engine.fixpoint`
types each node as it is released.  Only the rest go through an iterative
Tarjan (explicit stack, no recursion), so graphs with very long paths do not
hit the interpreter recursion limit.  Both visit nodes in the order they
are given; :func:`strongly_connected_components` gives them in ``repr``
order, making its component list deterministic.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Set, Tuple

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
    order = sorted(graph.nodes if nodes is None else nodes, key=repr)
    rest: Dict[NodeId, int] = {}
    components: List[Tuple[NodeId, ...]] = [(node,) for node in release(graph, order, rest)]
    if rest:
        components.extend(tarjan(graph, {node: None for node in order if node in rest}))
    return components


def release(graph: Graph, region, pending: Dict[NodeId, int]) -> Iterator[NodeId]:
    """Kahn's pass over ``region``, one node at a time, sinks first.

    ``region`` is a set, or a list of distinct nodes visited in its order.
    Each node that reaches no cycle of the subgraph ``region`` induces is
    yielded after all its successors in it.  ``pending`` is an empty dict
    the caller owns; once the generator is exhausted it holds the rest —
    the nodes that reach a cycle — each with its count of successors in the
    region not yet yielded.
    """
    index, out, into, source, _, target, _ = graph.adjacency()
    whole = len(region) == graph.node_count  # then every edge stays inside
    members = region if whole or isinstance(region, (set, frozenset)) else set(region)
    inside = members.__contains__
    ready: List[NodeId] = []
    for node in region:
        row = out[index[node]]
        count = len(row) if whole else sum(map(inside, map(target.__getitem__, row)))
        if count:
            pending[node] = count
        else:
            ready.append(node)
    ready.reverse()  # pop() then yields the sinks in ``region``'s order
    while ready:
        node = ready.pop()
        yield node
        for edge_id in into[index[node]]:
            predecessor = source[edge_id]
            left = pending.get(predecessor)
            if left is None:  # outside the region, or already released
                continue
            if left == 1:
                del pending[predecessor]
                ready.append(predecessor)
            else:
                pending[predecessor] = left - 1


def tarjan(graph: Graph, region) -> List[Tuple[NodeId, ...]]:
    """Tarjan's SCCs of the subgraph ``region`` induces, sinks first.

    ``region`` is a set or a dict of nodes; roots are taken in its iteration
    order.  A component of several nodes lists them in ``repr`` order.
    """
    row_of, out, _, _, _, target, _ = graph.adjacency()
    index: Dict[NodeId, int] = {}
    lowlink: Dict[NodeId, int] = {}
    done: Set[NodeId] = set()  # assigned to a component: off the stack
    stack: List[NodeId] = []
    components: List[Tuple[NodeId, ...]] = []
    for root in region:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        # Each work item is a node and the iterator over its successors, so a
        # node resumes where it descended instead of rescanning its edges.
        work = [(root, map(target.__getitem__, out[row_of[root]]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in region or successor in done:
                    continue
                if successor not in index:
                    index[successor] = lowlink[successor] = len(index)
                    stack.append(successor)
                    work.append((successor, map(target.__getitem__, out[row_of[successor]])))
                    break
                if index[successor] < lowlink[node]:
                    lowlink[node] = index[successor]
            else:
                work.pop()
                low = lowlink[node]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index[node]:
                    member = stack.pop()
                    done.add(member)
                    if member == node:
                        components.append((node,))
                        continue
                    component = [member]
                    while member != node:
                        member = stack.pop()
                        done.add(member)
                        component.append(member)
                    components.append(tuple(sorted(component, key=repr)))
    return components


def backward_closure(graph: Graph, seeds) -> set:
    """Every node that can reach a seed (BFS over the in-rows).

    The dependency closure of the fixpoint's propagation direction: a node's
    types — and its kind, under counting bisimulation — depend only on its
    out-reachable subgraph, so after a change at the seeds this closure is
    exactly the set of nodes whose derived state may differ.  Seeds are
    included; seeds absent from the graph must be filtered by the caller.
    """
    index, _, into, source, _, _, _ = graph.adjacency()
    closure = set(seeds)
    frontier: List[NodeId] = list(closure)
    while frontier:
        for predecessor in map(source.__getitem__, into[index[frontier.pop()]]):
            if predecessor not in closure:
                closure.add(predecessor)
                frontier.append(predecessor)
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
