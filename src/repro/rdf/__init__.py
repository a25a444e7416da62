"""A minimal RDF substrate: terms, triples, a Turtle-lite / N-Triples reader, and
conversion to simple graphs.

:func:`load_graph` reads a document straight into the simple graph the
validators type: one scan of the whole text, one decode per distinct token,
and one bulk graph build.  :func:`parse_turtle_lite` / :func:`parse_ntriples`
run the same scan but return an :class:`RDFGraph` of model terms, which
:func:`rdf_to_simple_graph` converts by the same node-id and marker rules.
"""

from repro.rdf.model import IRI, Literal, BlankNode, Triple, RDFGraph
from repro.rdf.parser import parse_ntriples, parse_turtle_lite
from repro.rdf.convert import load_graph, rdf_to_simple_graph

__all__ = [
    "IRI",
    "Literal",
    "BlankNode",
    "Triple",
    "RDFGraph",
    "parse_ntriples",
    "parse_turtle_lite",
    "load_graph",
    "rdf_to_simple_graph",
]
