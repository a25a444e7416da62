"""Parity of the whole-document RDF reader with the term-level model.

Random triples over IRIs, blank nodes and literals (with escapes, language
tags and datatypes, duplicate triples, and predicates that share a local
name) are rendered as Turtle-lite — with random ``@prefix`` use and
rebinding, ``a``, ``;``, ``,`` and comments — and as N-Triples.  Reading the
text back must give exactly the triples, and :func:`load_graph` must give the
graph :func:`rdf_to_simple_graph` builds from the terms without any parsing.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.convert import load_graph, rdf_to_simple_graph
from repro.rdf.model import IRI, BlankNode, Literal, RDFGraph, Triple
from repro.rdf.parser import RDF_TYPE, parse_ntriples, parse_turtle_lite

NAMESPACES = ("http://e/", "http://f/")
LOCALS = ("a", "b", "p", "x.y", "q-1", "_u", "7")
IRIS = [IRI(ns + local) for ns in NAMESPACES for local in LOCALS]
# http://e/p, http://f/p and http://g/ns#p all shorten to the label "p".
PREDICATES = [IRI("http://e/p"), IRI("http://f/p"), IRI("http://g/ns#p"),
              IRI("http://e/x.y"), IRI(RDF_TYPE)]

iris = st.sampled_from(IRIS + [IRI("http://g/ns#p"), IRI("http://g/a b")])
blanks = st.sampled_from([BlankNode("b0"), BlankNode("b1"), BlankNode("x-2")])
lexicals = st.text(alphabet='ab é#<>.;,"\\\n\r\t', max_size=6)
literals = st.one_of(
    st.builds(Literal, lexicals),
    st.builds(Literal, lexicals, language=st.sampled_from(["en", "en-GB"])),
    st.builds(Literal, lexicals, datatype=st.sampled_from(["http://t/int", "http://t/s#x"])),
)
subjects = st.one_of(iris, blanks)
triples = st.builds(
    Triple, subjects, st.sampled_from(PREDICATES), st.one_of(iris, blanks, literals)
)
triple_lists = st.lists(triples, max_size=12).flatmap(
    # Repeat some triples so duplicates are common.
    lambda drawn: st.lists(st.sampled_from(drawn), max_size=4).map(lambda extra: drawn + extra)
    if drawn else st.just(drawn)
)


def _escape(lexical: str) -> str:
    for raw, escaped in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t")):
        lexical = lexical.replace(raw, escaped)
    return lexical


def _term(term, prefixes=None) -> str:
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        text = f'"{_escape(term.lexical)}"'
        if term.language:
            return f"{text}@{term.language}"
        return f"{text}^^<{term.datatype}>" if term.datatype else text
    for namespace, prefix in (prefixes or {}).items():
        local = term.value[len(namespace):]
        if term.value.startswith(namespace) and local in LOCALS:
            return f"{prefix}:{local}"
    return f"<{term.value}>"


def _ntriples(drawn) -> str:
    return "".join(f"{_term(t.subject)} {_term(t.predicate)} {_term(t.object)} .\n" for t in drawn)


@st.composite
def turtle_documents(draw):
    drawn = draw(triple_lists)
    if draw(st.booleans()):
        drawn = sorted(drawn, key=lambda t: (str(t.subject), str(t.predicate)))
    choose = lambda: draw(st.booleans())
    prefixes = {}
    parts = []

    def declare(mapping):
        prefixes.clear()
        prefixes.update(mapping)
        for namespace, prefix in mapping.items():
            parts.append(f"@prefix {prefix}: <{namespace}> .{' # ns' if choose() else ''}\n")

    if choose():
        declare({"http://e/": "ex", "http://f/": "fx"})
    index = 0
    while index < len(drawn):
        if prefixes and choose():
            # Rebind both prefixes to the other namespace.
            declare({namespace: ("fx" if prefix == "ex" else "ex")
                     for namespace, prefix in prefixes.items()})
        subject, predicate, obj = (drawn[index].subject, drawn[index].predicate,
                                   drawn[index].object)

        def verb(term):
            return "a" if term.value == RDF_TYPE and choose() else _term(term, prefixes)

        parts.append(f"{_term(subject, prefixes)} {verb(predicate)} {_term(obj, prefixes)}")
        index += 1
        while index < len(drawn) and drawn[index].subject == subject and choose():
            following = drawn[index]
            if following.predicate == predicate and choose():
                parts.append(f" , {_term(following.object, prefixes)}")
            else:
                predicate = following.predicate
                parts.append(f" ;\n    {verb(predicate)} {_term(following.object, prefixes)}")
            index += 1
        parts.append(" ;" if choose() else "")
        comment = draw(st.sampled_from(["", " # note", ' # "q\\" <x> .', "#"]))
        # A comment runs to the end of its line; otherwise a statement may
        # share its line with the next one.
        parts.append(f" .{comment}" + draw(st.sampled_from(["\n", "\n\n  "] + ([] if comment else [" "]))))
    return drawn, "".join(parts)


def _assert_same_graph(text: str, drawn, ntriples: bool = False) -> None:
    direct = load_graph(text, ntriples=ntriples)
    expected = rdf_to_simple_graph(RDFGraph(drawn))
    assert direct.nodes == expected.nodes
    assert Counter(direct.triples()) == Counter(expected.triples())


class TestReaderParity:
    @given(turtle_documents())
    @settings(max_examples=200, deadline=None)
    def test_turtle_lite_reads_back_the_triples(self, document):
        drawn, text = document
        assert parse_turtle_lite(text).triples == set(drawn), text
        _assert_same_graph(text, drawn)

    @given(triple_lists)
    @settings(max_examples=100, deadline=None)
    def test_ntriples_reads_back_the_triples(self, drawn):
        text = _ntriples(drawn)
        assert parse_ntriples(text).triples == set(drawn), text
        _assert_same_graph(text, drawn, ntriples=True)
