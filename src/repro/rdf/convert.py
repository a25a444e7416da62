"""Conversion of RDF graphs into the simple-graph abstraction of the paper.

Shape expression schemas constrain only the outbound neighborhood of nodes, so
an RDF graph is abstracted as a simple graph over predicate labels
(Definition 2.1).  Node-level constraints — for example that a value must be a
literal of a given datatype — are "simulated" exactly as the paper suggests:
each literal node receives an extra outgoing edge whose label names its kind
(``Literal`` by default, or its datatype), so a schema can require
``descr :: Literal`` by requiring the target to have that marker edge.
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, List, Optional, Tuple

from repro.core.intervals import ONE, Interval
from repro.graphs.graph import Graph
from repro.rdf.parser import Key, scan

if TYPE_CHECKING:
    from repro.rdf.model import IRI, RDFGraph, Term

#: Label of the marker edge added below literal nodes.
LITERAL_MARKER_LABEL = "isLiteral"
#: Node that all literal marker edges point to.
LITERAL_MARKER_NODE = "__literal__"


def default_predicate_name(predicate: IRI) -> str:
    """Shorten a predicate IRI to its fragment or last path segment."""
    return _local_name(predicate.value)


def _local_name(value: str) -> str:
    for separator in ("#", "/"):
        if separator in value:
            tail = value.rsplit(separator, 1)[1]
            if tail:
                return tail
    return value


def node_id(term: Term) -> Hashable:
    """The simple-graph node of an RDF term: the IRI itself, ``_:label`` for a
    blank node, ``literal:lexical|datatype|language`` for a literal."""
    from repro.rdf.model import IRI, BlankNode

    if isinstance(term, IRI):
        return term.value
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    return _literal_id(term.lexical, term.datatype, term.language)


def _literal_id(lexical: str, datatype: Optional[str], language: Optional[str]) -> str:
    return f"literal:{lexical}|{datatype or ''}|{language or ''}"


def _key_id(key: Key) -> Hashable:
    """:func:`node_id` of the term a :func:`~repro.rdf.parser.scan` key stands for."""
    if key.__class__ is str:
        return key
    if len(key) == 2:
        return f"_:{key[1]}"
    return _literal_id(*key)


def _build(
    edges: List[Tuple[Hashable, str, Hashable, Interval]],
    literal_nodes: Iterable[Hashable],
    name: str,
) -> Graph:
    """The graph of ``(source, label, target, ONE)`` ``edges`` plus one
    marker edge per literal node."""
    edges.extend(
        (literal, LITERAL_MARKER_LABEL, LITERAL_MARKER_NODE, ONE)
        for literal in sorted(literal_nodes)
    )
    return Graph.from_edges(edges, name=name)


def load_graph(text: str, ntriples: bool = False, name: str = "") -> Graph:
    """Read Turtle-lite (or, with ``ntriples=True``, N-Triples) text straight
    into a simple graph.

    The result equals ``rdf_to_simple_graph(parse_turtle_lite(text))`` (or
    :func:`~repro.rdf.parser.parse_ntriples`): the same nodes, edges and
    literal marker edges, without building RDF term objects or the
    intermediate :class:`~repro.rdf.model.RDFGraph`: the scan's term keys map
    straight to node ids.  Triples are deduplicated on RDF terms, so two
    predicate IRIs with one local name stay parallel edges, and so do two
    distinct literals with one node id (``"a"`` and ``"a"^^<>``).
    """
    # The cyclic collector would only rescan the growing heap of keys and
    # edges; it is paused for the build and left as it was found, also when
    # the text does not parse.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load(text, ntriples, name)
    finally:
        if collecting:
            gc.enable()


def _load(text: str, ntriples: bool, name: str) -> Graph:
    keys, triples = scan(text, ntriples)
    ids = [_key_id(key) for key in keys]
    labels = {p: _local_name(keys[p]) for p in {p for _, p, _ in triples}}
    edges = [(ids[s], labels[p], ids[o], ONE) for s, p, o in triples]
    literals = {
        ids[index]
        for index, key in enumerate(keys)
        if key.__class__ is tuple and len(key) == 3
    }
    return _build(edges, literals, name)


def rdf_to_simple_graph(
    rdf: RDFGraph,
    predicate_name: Optional[Callable[[IRI], str]] = None,
    literal_marker: bool = True,
    name: str = "",
) -> Graph:
    """Abstract an RDF graph into a simple graph.

    * Subjects, IRI objects and blank nodes become graph nodes identified by
      :func:`node_id`.
    * Each literal becomes its own node (one per occurrence position is not
      needed: literals with equal value/datatype/language collapse, which is the
      RDF semantics of literal terms).
    * With ``literal_marker=True`` every literal node receives an extra outgoing
      ``isLiteral`` edge to a shared marker node — the simulation the paper
      describes for node-kind constraints.
    """
    from repro.rdf.model import Literal

    naming = predicate_name or default_predicate_name
    edges = []
    literals = set()
    for triple in rdf:
        object_id = node_id(triple.object)
        edges.append((node_id(triple.subject), naming(triple.predicate), object_id, ONE))
        if literal_marker and isinstance(triple.object, Literal):
            literals.add(object_id)
    return _build(edges, literals, name or rdf.name)
