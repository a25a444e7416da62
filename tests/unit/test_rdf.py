"""Unit tests for the RDF substrate: model, parsers, conversion to simple graphs."""

import pytest

from repro.errors import RDFSyntaxError
from repro.rdf.convert import (
    LITERAL_MARKER_LABEL,
    LITERAL_MARKER_NODE,
    load_graph,
    rdf_to_simple_graph,
)
from repro.rdf.model import IRI, BlankNode, Literal, RDFGraph, Triple
from repro.rdf.parser import RDF_TYPE, parse_ntriples, parse_turtle_lite


class TestModel:
    def test_terms_render(self):
        assert str(IRI("http://x.org/a")) == "<http://x.org/a>"
        assert str(BlankNode("b1")) == "_:b1"
        assert str(Literal("hi")) == '"hi"'
        assert str(Literal("hi", language="en")) == '"hi"@en'
        assert str(Literal("1", datatype="http://www.w3.org/2001/XMLSchema#int")).endswith("int>")

    def test_graph_indexing(self):
        s, p, o = IRI("http://x/s"), IRI("http://x/p"), Literal("v")
        graph = RDFGraph([Triple(s, p, o)])
        graph.add_triple(s, IRI("http://x/q"), IRI("http://x/o2"))
        assert len(graph) == 2
        assert graph.objects(s, p) == [o]
        assert len(graph.outgoing(s)) == 2
        assert graph.predicates() == {p, IRI("http://x/q")}
        assert s in graph.subjects()

    def test_duplicate_triples_collapse(self):
        t = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("v"))
        graph = RDFGraph([t, t])
        assert len(graph) == 1


class TestNTriplesParser:
    def test_basic_lines(self):
        graph = parse_ntriples(
            """
            # a comment
            <http://x/s> <http://x/p> <http://x/o> .
            <http://x/s> <http://x/q> "hello"@en .
            _:b <http://x/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
            """
        )
        assert len(graph) == 3
        assert BlankNode("b") in graph.subjects()

    def test_rejects_malformed(self):
        with pytest.raises(RDFSyntaxError):
            parse_ntriples("<http://x/s> <http://x/p> .")
        with pytest.raises(RDFSyntaxError):
            parse_ntriples('"lit" <http://x/p> <http://x/o> .')


class TestTurtleLiteParser:
    def test_prefixes_semicolons_and_commas(self):
        graph = parse_turtle_lite(
            """
            @prefix ex: <http://example.org/> .
            ex:s ex:p ex:o ;
                 ex:q "v" , "w" .
            """
        )
        assert len(graph) == 3
        assert IRI("http://example.org/s") in graph.subjects()

    def test_a_keyword(self):
        graph = parse_turtle_lite(
            """
            @prefix ex: <http://example.org/> .
            ex:s a ex:Thing .
            """
        )
        triple = next(iter(graph))
        assert triple.predicate == IRI(RDF_TYPE)

    def test_hash_in_iri_not_a_comment(self):
        graph = parse_turtle_lite(
            """
            @prefix ex: <http://example.org/ns#> .
            ex:s ex:p ex:o .   # trailing comment
            """
        )
        assert IRI("http://example.org/ns#s") in graph.subjects()

    def test_unknown_prefix_raises(self):
        with pytest.raises(RDFSyntaxError):
            parse_turtle_lite("ex:s ex:p ex:o .")

    def test_literal_predicate_rejected(self):
        with pytest.raises(RDFSyntaxError):
            parse_turtle_lite('<http://x/s> "p" <http://x/o> .')


EX = "@prefix ex: <http://e/> .\n"


class TestParserRegressions:
    """Inputs the per-line reader got wrong; the whole-document scan reads them."""

    def test_local_name_does_not_swallow_terminator(self):
        graph = parse_turtle_lite(EX + "ex:s ex:p ex:o.")
        assert graph.triples == {Triple(IRI("http://e/s"), IRI("http://e/p"), IRI("http://e/o"))}

    def test_comment_after_escaped_backslash(self):
        graph = parse_turtle_lite(EX + 'ex:s ex:p "a\\\\" . # x"')
        assert graph.triples == {Triple(IRI("http://e/s"), IRI("http://e/p"), Literal("a\\"))}

    def test_two_statements_on_one_line(self):
        graph = parse_turtle_lite(EX + "ex:s ex:p ex:o . ex:t ex:p ex:o .")
        assert graph.subjects() == {IRI("http://e/s"), IRI("http://e/t")}

    def test_raw_newline_in_literal_rejected(self):
        with pytest.raises(RDFSyntaxError, match="line 2"):
            parse_turtle_lite(EX + 'ex:s ex:p "multi\nline" .')

    def test_escapes_decoded_in_one_pass(self):
        graph = parse_ntriples('<http://e/s> <http://e/p> "a\\\\n\\tb\\"" .')
        assert next(iter(graph)).object == Literal('a\\n\tb"')


class TestErrorLocations:
    def test_bad_character_names_line_and_column(self):
        text = EX + "ex:s ex:p ex:o .\nex:s ex:p ? .\n"
        with pytest.raises(RDFSyntaxError, match="line 3: unexpected character '\\?' at column 11"):
            parse_turtle_lite(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("ex:s ex:p ex:o .", "line 1: unknown prefix 'ex'"),
            (EX + '\n"lit" ex:p ex:o .', "line 3: literal"),
            (EX + '\nex:s\n  "p" ex:o .', "line 4: predicate must be an IRI"),
            (EX + "ex:s ex:p ex:o .\nex:t ex:p\n", "line 3: unexpected end of input"),
            (EX + "ex:s ex:p ex:o", "line 2: unexpected end of input"),
        ],
    )
    def test_grammar_errors_name_their_line(self, text, message):
        with pytest.raises(RDFSyntaxError, match=message):
            parse_turtle_lite(text)
        with pytest.raises(RDFSyntaxError, match=message):
            load_graph(text)

    @pytest.mark.parametrize(
        "text",
        [
            '<http://x/s> <http://x/p> "v" , "w" .',
            "<http://x/s> <http://x/p> <http://x/o> ; <http://x/q> <http://x/o> .",
            "<http://x/s> a <http://x/C> .",
            "@prefix ex: <http://e/> .",
            "<http://x/s> <http://x/p> ex:o .",
        ],
    )
    def test_ntriples_rejects_turtle_syntax(self, text):
        with pytest.raises(RDFSyntaxError, match="not N-Triples syntax"):
            parse_ntriples(text)
        with pytest.raises(RDFSyntaxError, match="not N-Triples syntax"):
            load_graph(text, ntriples=True)


class TestConversion:
    def test_literal_marker_edges(self):
        graph = parse_ntriples('<http://x/s> <http://x/p> "v" .')
        simple = rdf_to_simple_graph(graph)
        assert simple.is_simple()
        assert LITERAL_MARKER_NODE in simple.nodes
        literal_nodes = [
            edge.source for edge in simple.edges if edge.label == LITERAL_MARKER_LABEL
        ]
        assert len(literal_nodes) == 1

    def test_no_marker_when_disabled(self):
        graph = parse_ntriples('<http://x/s> <http://x/p> "v" .')
        simple = rdf_to_simple_graph(graph, literal_marker=False)
        assert LITERAL_MARKER_NODE not in simple.nodes

    def test_predicate_names_shortened(self):
        graph = parse_ntriples("<http://x/s> <http://example.org/ns#knows> <http://x/o> .")
        simple = rdf_to_simple_graph(graph)
        assert simple.labels() == {"knows"}

    def test_custom_predicate_naming(self):
        graph = parse_ntriples("<http://x/s> <http://example.org/ns#knows> <http://x/o> .")
        simple = rdf_to_simple_graph(graph, predicate_name=lambda iri: iri.value)
        assert simple.labels() == {"http://example.org/ns#knows"}

    def test_equal_literals_collapse(self):
        graph = parse_ntriples(
            '<http://x/s> <http://x/p> "v" .\n<http://x/t> <http://x/p> "v" .'
        )
        simple = rdf_to_simple_graph(graph)
        literal_nodes = {
            edge.source for edge in simple.edges if edge.label == LITERAL_MARKER_LABEL
        }
        assert len(literal_nodes) == 1

    def test_load_graph_matches_parse_then_convert(self):
        text = EX + (
            "@prefix o: <http://other/> .\n"
            'ex:s ex:p ex:o , "v" ; o:p ex:o ; a ex:C .\n'
            '_:b ex:p "v"@en , "1"^^<http://t> , "v" .\n'
            "ex:s ex:p ex:o .\n"
        )
        direct = load_graph(text, name="doc")
        converted = rdf_to_simple_graph(parse_turtle_lite(text))
        assert direct.name == "doc"
        assert direct.nodes == converted.nodes
        assert sorted(direct.triples()) == sorted(converted.triples())
        # ex:p and o:p share the local name "p" but stay two parallel edges.
        assert direct.successors("http://e/s", "p").count("http://e/o") == 2

    def test_prefix_rebinding_reexpands_names(self):
        text = EX + "ex:s ex:p ex:o .\n@prefix ex: <http://f/> .\nex:s ex:p ex:o .\n"
        assert load_graph(text).triples() == [
            ("http://e/s", "p", "http://e/o"),
            ("http://f/s", "p", "http://f/o"),
        ]
