"""Parsers for a practical subset of N-Triples and a light Turtle dialect.

Two entry points are provided:

* :func:`parse_ntriples` — terms written as ``<iri>``, ``_:blank``, or
  ``"literal"`` (optionally ``@lang`` / ``^^<datatype>``), each statement
  ``subject predicate object`` terminated by ``.``; ``#`` starts a comment.
* :func:`parse_turtle_lite` — the same term syntax plus ``@prefix`` declarations,
  prefixed names (``ex:bug1``), the ``a`` keyword for ``rdf:type``, and the
  ``;`` / ``,`` separators for repeated subjects and predicates.  This is not a
  full Turtle parser, but it covers the shapes of data the examples and tests
  use, keeping the library free of external dependencies.

Both read the whole document in one :func:`scan`: a single compiled token
pattern covers the text (whitespace and comments are tokens too), each
distinct token text is decoded once, and one grammar loop serves both
dialects.  A local name never ends in ``.`` (``ex:o.`` is ``ex:o`` then the
terminator), and a literal or IRI may not contain a raw line break.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.errors import RDFSyntaxError
from repro.rdf.model import IRI, BlankNode, Literal, RDFGraph, Term, Triple

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

# No capturing groups, so ``findall`` returns the token texts.  Every
# alternative consumes at least one character; a character no alternative
# matches is skipped by ``findall``, which :func:`scan` detects by length.
_TOKEN_RE = re.compile(
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
_LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"(?:@([A-Za-z\-]+)|\^\^<([^>]*)>)?')
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}

_PREFIX_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*:")
_KEYWORDS = frozenset((".", ";", ",", "@prefix", "a"))

#: Decoded form of whitespace and comment tokens.
_SKIP = object()

# Grammar states of :func:`scan`.
_SUBJECT, _PREDICATE, _OBJECT, _AFTER_OBJECT, _AFTER_SEMICOLON = range(5)
_PREFIX_NAME, _PREFIX_IRI, _PREFIX_END = range(5, 8)
_EXPECTED = {
    _SUBJECT: "a subject",
    _PREDICATE: "a predicate",
    _OBJECT: "an object",
    _AFTER_OBJECT: "';', ',' or '.'",
    _AFTER_SEMICOLON: "a predicate or '.'",
    _PREFIX_NAME: "a prefix name such as 'ex:'",
    _PREFIX_IRI: "an IRI",
    _PREFIX_END: "'.'",
}


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return _ESCAPE_RE.sub(lambda match: _ESCAPES.get(match.group(1), match.group(0)), text)


def _is_blank(token: str) -> bool:
    """Whitespace and comments."""
    return token[0].isspace() or token[0] == "#"


def _line_of(text: str, offset: int) -> Tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _gap_error(text: str) -> RDFSyntaxError:
    """Locate the first character no token pattern matches."""
    position = 0
    while True:
        match = _TOKEN_RE.match(text, position)
        if match is None:
            break
        position = match.end()
    line, column = _line_of(text, position)
    character = text[position]
    hint = " (unterminated literal or IRI?)" if character in "\"<" else ""
    return RDFSyntaxError(
        f"line {line}: unexpected character {character!r} at column {column}{hint}"
    )


def scan(text: str, ntriples: bool = False) -> Tuple[List[Term], List[Tuple[int, int, int]]]:
    """Read a whole document into distinct terms and deduplicated triples.

    Returns ``(terms, triples)``: every distinct RDF term once, and each
    distinct triple once, in document order, as ``(subject, predicate,
    object)`` indices into ``terms``.  With ``ntriples=True`` the Turtle-only
    syntax — ``@prefix``, prefixed names, ``a``, ``;`` and ``,`` — is an error.
    """
    tokens = _TOKEN_RE.findall(text)
    if sum(map(len, tokens)) != len(text):
        raise _gap_error(text)

    terms: List[Term] = []
    term_index: Dict[Term, int] = {}
    # token text -> _SKIP, a term index, or the token itself (punctuation and
    # keywords); prefixed names depend on ``prefixes``, so a rebinding
    # clears the memo.
    memo: Dict[str, object] = {}
    prefixes: Dict[str, str] = {}
    triples: Dict[Tuple[int, int, int], None] = {}
    iri_terms: set = set()
    rdf_type = -1

    def fail(position: int, message: str) -> RDFSyntaxError:
        offset = sum(map(len, tokens[:position]))
        return RDFSyntaxError(f"line {_line_of(text, offset)[0]}: {message}")

    def intern(term: Term) -> int:
        index = term_index.get(term)
        if index is None:
            index = term_index[term] = len(terms)
            terms.append(term)
            if isinstance(term, IRI):
                iri_terms.add(index)
        return index

    def decode(token: str, position: int) -> object:
        if _is_blank(token):
            return _SKIP
        if token[0] == "<":
            return intern(IRI(token[1:-1]))
        if token[0] == '"':
            lexical, language, datatype = _LITERAL_RE.fullmatch(token).groups()
            return intern(Literal(_unescape(lexical), datatype=datatype, language=language))
        if token.startswith("_:"):
            return intern(BlankNode(token[2:]))
        if token in _KEYWORDS and (not ntriples or token == "."):
            return token
        if ntriples:
            raise fail(position, f"{token!r} is not N-Triples syntax")
        prefix, _, local = token.partition(":")
        if prefix not in prefixes:
            raise fail(position, f"unknown prefix {prefix!r}")
        return intern(IRI(prefixes[prefix] + local))

    state = _SUBJECT
    subject = predicate = 0
    prefix_name = ""
    for position, token in enumerate(tokens):
        if state >= _PREFIX_NAME:
            # Declarations are rare: read their tokens raw, not through the memo.
            if _is_blank(token):
                continue
            if state == _PREFIX_NAME and _PREFIX_NAME_RE.fullmatch(token):
                prefix_name = token[:-1]
                state = _PREFIX_IRI
            elif state == _PREFIX_IRI and token[0] == "<":
                iri = token[1:-1]
                if prefixes.get(prefix_name, iri) != iri:
                    memo.clear()
                prefixes[prefix_name] = iri
                state = _PREFIX_END
            elif state == _PREFIX_END and token == ".":
                state = _SUBJECT
            else:
                raise fail(position, f"malformed @prefix declaration at {token!r}")
            continue
        code = memo.get(token)
        if code is None:
            code = memo[token] = decode(token, position)
        if code is _SKIP:
            continue
        if state == _OBJECT:
            if code.__class__ is not int:
                raise fail(position, f"expected an object, found {token!r}")
            triples[subject, predicate, code] = None
            state = _AFTER_OBJECT
        elif state == _AFTER_OBJECT:
            if code == ".":
                state = _SUBJECT
            elif code == ";":
                state = _AFTER_SEMICOLON
            elif code == ",":
                state = _OBJECT
            else:
                raise fail(position, f"expected ';', ',' or '.', found {token!r}")
        elif state == _SUBJECT:
            if code == "@prefix":
                state = _PREFIX_NAME
            elif code.__class__ is not int:
                raise fail(position, f"expected a subject, found {token!r}")
            elif isinstance(terms[code], Literal):
                raise fail(position, f"literal {token} not allowed as a subject")
            else:
                subject = code
                state = _PREDICATE
        else:  # _PREDICATE or _AFTER_SEMICOLON
            if code == "a":
                if rdf_type < 0:
                    rdf_type = intern(IRI(RDF_TYPE))
                code = rdf_type
            if code in iri_terms:
                predicate = code
                state = _OBJECT
            elif state == _AFTER_SEMICOLON and code == ".":
                state = _SUBJECT
            elif code.__class__ is int:
                raise fail(position, f"predicate must be an IRI, found {token!r}")
            else:
                raise fail(position, f"expected a predicate, found {token!r}")
    if state != _SUBJECT:
        last = len(tokens) - 1
        while _is_blank(tokens[last]):
            last -= 1
        raise fail(last, f"unexpected end of input: expected {_EXPECTED[state]}")
    return terms, list(triples)


def _rdf_graph(text: str, ntriples: bool, name: str) -> RDFGraph:
    terms, triples = scan(text, ntriples)
    return RDFGraph(
        (Triple(terms[s], terms[p], terms[o]) for s, p, o in triples), name=name
    )


def parse_ntriples(text: str, name: str = "") -> RDFGraph:
    """Parse N-Triples-style input (``subject predicate object .`` statements)."""
    return _rdf_graph(text, True, name)


def parse_turtle_lite(text: str, name: str = "") -> RDFGraph:
    """Parse the light Turtle dialect described in the module docstring."""
    return _rdf_graph(text, False, name)
