"""The bug-report workload of Figure 1 and the refactoring example of Section 1.

Figure 1 of the paper presents an RDF graph storing bug reports, its shape
expression schema, and the corresponding shape graph.  The introduction then
refactors the schema — splitting ``User`` into ``User1`` (no email) and
``User2`` (with email) and duplicating ``Bug`` accordingly — and observes that
the refactored schema is *equivalent* to the original even though it is no
longer deterministic.  Both schemas, the instance graph, and its RDF source are
provided here; they drive the quickstart example and several integration tests.
"""

from __future__ import annotations

from repro.graphs.graph import Graph
from repro.rdf.model import RDFGraph
from repro.rdf.parser import parse_turtle_lite
from repro.schema.parser import parse_schema
from repro.schema.shex import ShExSchema

#: The predicate namespace used by the RDF rendering of Figure 1.
BUG_TRACKER_PREFIX = "http://example.org/bugs#"


def bug_tracker_schema() -> ShExSchema:
    """The shape expression schema of Figure 1.

    ``Literal`` is modelled as a type requiring the ``isLiteral`` marker edge
    that :func:`repro.rdf.convert.rdf_to_simple_graph` attaches below literal
    nodes — the simulation of node-kind constraints described in Section 2.
    """
    return parse_schema(
        """
        Bug -> descr :: Literal, reportedBy :: User, reproducedBy :: Employee?, related :: Bug*
        User -> name :: Literal, email :: Literal?
        Employee -> name :: Literal, email :: Literal
        Literal -> isLiteral :: Marker
        Marker -> eps
        """,
        name="bug-tracker",
    )


def bug_tracker_refactored_schema() -> ShExSchema:
    """The refactored schema of Section 1 (User split by presence of email).

    The refactored schema is equivalent to :func:`bug_tracker_schema` but is no
    longer deterministic: the ``related`` label is used with both ``Bug1`` and
    ``Bug2`` in a single definition.
    """
    return parse_schema(
        """
        Bug1 -> descr :: Literal, reportedBy :: User1, reproducedBy :: Employee?, related :: Bug1*, related :: Bug2*
        Bug2 -> descr :: Literal, reportedBy :: User2, reproducedBy :: Employee?, related :: Bug1*, related :: Bug2*
        User1 -> name :: Literal
        User2 -> name :: Literal, email :: Literal
        Employee -> name :: Literal, email :: Literal
        Literal -> isLiteral :: Marker
        Marker -> eps
        """,
        name="bug-tracker-refactored",
    )


BUG_TRACKER_TURTLE = """
@prefix ex: <http://example.org/bugs#> .

ex:bug1 ex:descr "Boom!" ;
        ex:reportedBy ex:user1 ;
        ex:reproducedBy ex:emp1 ;
        ex:related ex:bug2 .
ex:bug2 ex:descr "Kaboom!" ;
        ex:reportedBy ex:user2 ;
        ex:related ex:bug1 ;
        ex:related ex:bug3 .
ex:bug3 ex:descr "Kabang!" ;
        ex:reportedBy ex:user1 .
ex:bug4 ex:descr "Bang!" ;
        ex:reportedBy ex:user2 .
ex:user1 ex:name "John" .
ex:user2 ex:name "Mary" ;
         ex:email "m@h.org" .
ex:emp1 ex:name "Steve" ;
        ex:email "stv@m.pl" .
"""


def bug_tracker_rdf() -> RDFGraph:
    """The RDF triples of Figure 1 (top left), in the light Turtle dialect."""
    return parse_turtle_lite(BUG_TRACKER_TURTLE, name="bug-tracker-rdf")


def bug_tracker_graph() -> Graph:
    """The Figure 1 instance as a simple graph ready for validation."""
    from repro.rdf.convert import load_graph

    return load_graph(BUG_TRACKER_TURTLE, name="bug-tracker-graph")
