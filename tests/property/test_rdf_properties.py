"""Parity of the whole-document RDF reader with the term-level model.

Random triples over IRIs, blank nodes and literals (with escapes, language
tags and datatypes, duplicate triples, and predicates that share a local
name) are rendered as Turtle-lite — with random ``@prefix`` use and
rebinding, ``a``, ``;``, ``,`` and comments — and as N-Triples.  Reading the
text back must give exactly the triples, and :func:`load_graph` must give the
graph :func:`rdf_to_simple_graph` builds from the terms without any parsing.
The scanner, which consumes blanks and comments outside its tokens, must
read the tokens a pattern that keeps blanks as tokens reads, report the
same first malformed character, and stay linear on long blank runs.
"""

from __future__ import annotations

import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.convert import load_graph, rdf_to_simple_graph
from repro.rdf.model import IRI, BlankNode, Literal, RDFGraph, Triple
from repro.errors import RDFSyntaxError
from repro.rdf.parser import _TOKEN_RE, RDF_TYPE, parse_ntriples, parse_turtle_lite, scan

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

    def test_distinct_terms_with_one_node_id_stay_parallel_edges(self):
        # "a" and "a"^^<> are two terms, so two triples, but both convert to
        # the node literal:a||: two parallel edges into one node, one marker.
        text = '<http://e/s> <http://e/p> "a" , "a"^^<> , "a"@en .\n'
        direct = load_graph(text)
        expected = rdf_to_simple_graph(parse_turtle_lite(text))
        assert direct.nodes == expected.nodes
        assert Counter(direct.triples()) == Counter(expected.triples())
        assert Counter(direct.triples())[("http://e/s", "p", "literal:a||")] == 2
        assert len(direct.in_edges("__literal__")) == 2
        assert len(parse_turtle_lite(text)) == 3


# --------------------------------------------------------------------------- #
# The scanner's tokens against a reference that keeps blanks as tokens
# --------------------------------------------------------------------------- #
#: The token pattern with whitespace and comments as tokens of their own; a
#: character it cannot match at some offset is where the text is malformed.
_REFERENCE_TOKEN = re.compile(
    r"""
    \s+
  | \#[^\n]*
  | <[^>\n]*>
  | _:[A-Za-z0-9_\-]+
  | "(?:[^"\\\n\r]|\\.)*"(?:@[A-Za-z\-]+|\^\^<[^>\n]*>)?
  | [A-Za-z_][A-Za-z0-9_\-]*:(?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?
  | @prefix
  | a\b
  | [.;,]
    """,
    re.VERBOSE,
)

PIECES = ["ex:s", "ex:p", "ex:o.", "a", "aa", "ab", "a-b", "<http://e/x>", "<open",
          '"v"', '"q\\"w"@en', '"1"^^<http://t/int>', '"open', "_:b1", "_:", ".", ";",
          ",", "@prefix", "@prefixes", "ex:", "<http://e/>", "zz:q", ":x", "$", "é", "7"]
SEPARATORS = ["", " ", "  \t ", "\n", "\r\n", "\n\n   ", " # note\n", "#\n", "# ; , .\n"]


def _reference_tokens(text: str):
    """``(tokens, gap)``: the non-blank token texts, and the offset of the
    first character no pattern matches (``None`` when there is none)."""
    tokens, position = [], 0
    while position < len(text):
        match = _REFERENCE_TOKEN.match(text, position)
        if match is None:
            return tokens, position
        if not match.group()[0].isspace() and match.group()[0] != "#":
            tokens.append(match.group())
        position = match.end()
    return tokens, None


@st.composite
def token_documents(draw):
    """Pieces of the Turtle-lite syntax, valid or not, between blank runs and
    comments; often headed by a prefix declaration."""
    parts = ["@prefix ex: <http://e/> ." + draw(st.sampled_from(SEPARATORS[1:]))] \
        if draw(st.booleans()) else []
    for piece in draw(st.lists(st.sampled_from(PIECES), max_size=14)):
        parts.append(piece)
        parts.append(draw(st.sampled_from(SEPARATORS)))
    return "".join(parts)


class TestScanner:
    @given(token_documents(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_tokens_and_first_gap_match_the_reference(self, text, ntriples):
        tokens, gap = _reference_tokens(text)
        if gap is None:
            assert [token for token in _TOKEN_RE.findall(text) if token] == tokens
            return
        line = text.count("\n", 0, gap) + 1
        column = gap - (text.rfind("\n", 0, gap) + 1) + 1
        with pytest.raises(RDFSyntaxError) as caught:
            scan(text, ntriples)
        assert str(caught.value).startswith(
            f"line {line}: unexpected character {text[gap]!r} at column {column}"
        ), text

    @given(turtle_documents(), st.lists(st.sampled_from(SEPARATORS[1:]), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_blank_runs_and_comments_between_statements_read_the_same(self, document, runs):
        drawn, text = document
        padded = "".join(
            line + "\n" + runs[index % len(runs)]
            for index, line in enumerate(text.split("\n"))
        )
        assert parse_turtle_lite(padded).triples == set(drawn), padded

    @pytest.mark.parametrize("text", [
        "<http://e/s> <http://e/p> <http://e/o> ." + " " * 200_000,
        "#" + "x" * 200_000 + "\n" + "# c\n" * 50_000 + '<http://e/s> <http://e/p> "x" .',
        " " * 200_000 + '"unterminated',
    ], ids=["trailing-blanks", "comment-run", "blanks-then-error"])
    def test_long_blank_runs_scan_in_linear_time(self, text):
        # A pattern that backtracks over a blank run at every offset would
        # take minutes here; a linear scan takes milliseconds.
        started = time.perf_counter()
        try:
            scan(text)
        except RDFSyntaxError:
            pass
        assert time.perf_counter() - started < 5.0
