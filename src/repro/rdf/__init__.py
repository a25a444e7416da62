"""A minimal RDF substrate: terms, triples, a Turtle-lite / N-Triples reader, and
conversion to simple graphs.

:func:`load_graph` reads a document straight into the simple graph the
validators type: one scan of the whole text, one decode per distinct token,
and one bulk graph build, with no RDF term objects in between.
:func:`parse_turtle_lite` / :func:`parse_ntriples` run the same scan but
return an :class:`RDFGraph` of model terms, which :func:`rdf_to_simple_graph`
converts by the same node-id and marker rules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.rdf.model": ("IRI", "Literal", "BlankNode", "Triple", "RDFGraph"),
    "repro.rdf.parser": ("parse_ntriples", "parse_turtle_lite"),
    "repro.rdf.convert": ("load_graph", "rdf_to_simple_graph"),
})
