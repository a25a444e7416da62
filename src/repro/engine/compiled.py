"""Compiled schema artifacts: precomputed per-type data for repeated checks.

Every entry point of the library (validation, compressed validation,
containment) repeatedly needs the same derived data about a schema: the sorted
alphabet of each rule, its per-symbol occurrence bounds, the
Presburger template ``ψ_{δ(t)}(z̄, 1)`` of Section 6.1, the schema's position in
the class hierarchy, and its shape graph.  The one-shot APIs recompute all of
this on every call; :class:`CompiledSchema` computes each piece once and interns
it so that batch workloads pay the compilation cost a single time per schema.

Fingerprints (content hashes) of schemas and graphs are also defined here; the
engine caches use them as keys, so two structurally identical schemas loaded
from different files share compilation and cached results.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.graphs.graph import Graph
from repro.rbe.ast import RBE
from repro.rbe.rbe0 import as_rbe0
from repro.schema.shex import ShExSchema, TypeName

if TYPE_CHECKING:
    from repro.presburger.formula import Formula


def schema_fingerprint(schema: ShExSchema) -> str:
    """A content hash of a schema: identical rules yield identical fingerprints.

    The canonical text of ``str(schema)`` lists rules sorted by type name, so
    the fingerprint ignores the schema's display name and rule insertion order.
    """
    digest = hashlib.sha256()
    digest.update(b"shex-schema\x00")
    digest.update(str(schema).encode("utf-8"))
    return digest.hexdigest()


#: How many buckets :func:`graph_fingerprint` splits a graph's nodes into.
#: A node's bucket is ``zlib.crc32(repr(node)) % FINGERPRINT_BUCKETS``; part of
#: the fingerprint's definition (and of its domain tag), so changing it
#: changes every graph key.  Each non-empty bucket costs one SHA-256 call, so
#: more buckets slow the from-scratch hash of small graphs (at 1024 a 600-node
#: graph hashed slower than one flat SHA-256 over the sorted lines) while
#: fewer make a maintained rehash cover more nodes per touched bucket.
FINGERPRINT_BUCKETS = 256

_GRAPH_TAG = f"graph-buckets\x00{FINGERPRINT_BUCKETS}\x00".encode("utf-8")


def fingerprint_bucket(node_repr: str) -> int:
    """The fingerprint bucket of a node, given its ``repr``."""
    return zlib.crc32(node_repr.encode("utf-8")) % FINGERPRINT_BUCKETS


def bucket_digest(node_lines: List[str], edge_lines: List[str]) -> bytes:
    """SHA-256 of one bucket: its node lines, then its nodes' out-edge lines.

    A node line is the node's ``repr``; an edge line is
    ``"{source!r}\\x00{label}\\x00{target!r}\\x00{occur}"``.  Both lists are
    sorted in place, so the digest does not depend on insertion order.
    """
    node_lines.sort()
    edge_lines.sort()
    text = "".join(
        (
            "\x00".join(node_lines),
            "\x00\x01" if node_lines else "\x01",
            "\x02".join(edge_lines),
            "\x02" if edge_lines else "",
        )
    )
    return hashlib.sha256(text.encode("utf-8")).digest()


#: The digest of a bucket holding no node.
_EMPTY_BUCKET = bucket_digest([], [])


def root_digest(bucket_digests: Sequence[bytes]) -> str:
    """The graph fingerprint: SHA-256 of the domain tag and every bucket digest."""
    digest = hashlib.sha256(_GRAPH_TAG)
    digest.update(b"".join(bucket_digests))
    return digest.hexdigest()


def graph_buckets(graph: Graph) -> Tuple[Dict[int, List[object]], List[bytes]]:
    """``(members, digests)``: the nodes of every non-empty bucket, and every
    bucket's digest, built in one pass over the graph.

    ``repr`` is computed once per node and ``str`` once per distinct interval;
    edge lines are grouped by their source's bucket.  Incremental maintainers
    (:meth:`repro.graphs.store.GraphStore.fingerprint`) keep ``members`` and
    rehash single buckets with :func:`nodes_digest`.
    """
    crc32 = zlib.crc32
    buckets = FINGERPRINT_BUCKETS
    members: Dict[int, List[object]] = {}
    lines: Dict[int, Tuple[List[str], List[str]]] = {}
    reprs: Dict[object, str] = {}
    # node -> the edge-line list of its bucket
    edge_lists: Dict[object, List[str]] = {}
    for node in graph.nodes:
        text = reprs[node] = repr(node)
        bucket = crc32(text.encode("utf-8")) % buckets
        group = lines.get(bucket)
        if group is None:
            group = lines[bucket] = ([], [])
            members[bucket] = [node]
        else:
            members[bucket].append(node)
        group[0].append(text)
        edge_lists[node] = group[1]
    # str() once per distinct interval object (edges share ONE and friends).
    occur_text: Dict[int, str] = {}
    for edge in graph.edges:
        occur = occur_text.get(id(edge.occur))
        if occur is None:
            occur = occur_text[id(edge.occur)] = str(edge.occur)
        source = edge.source
        edge_lists[source].append(
            f"{reprs[source]}\x00{edge.label}\x00{reprs[edge.target]}\x00{occur}"
        )
    digests = [_EMPTY_BUCKET] * buckets
    for bucket, (node_lines, edge_lines) in lines.items():
        digests[bucket] = bucket_digest(node_lines, edge_lines)
    return members, digests


def nodes_digest(graph: Graph, nodes: Iterable[object]) -> bytes:
    """The digest of the bucket holding exactly ``nodes``, read off ``graph``.

    Like :func:`graph_buckets`, it formats each distinct interval object
    once.
    """
    node_lines: List[str] = []
    edge_lines: List[str] = []
    occur_text: Dict[int, str] = {}
    for node in nodes:
        text = repr(node)
        node_lines.append(text)
        for edge in graph.out_edges(node):
            occur = occur_text.get(id(edge.occur))
            if occur is None:
                occur = occur_text[id(edge.occur)] = str(edge.occur)
            edge_lines.append(
                f"{text}\x00{edge.label}\x00{edge.target!r}\x00{occur}"
            )
    return bucket_digest(node_lines, edge_lines)


def graph_fingerprint(graph: Graph) -> str:
    """A content hash of a graph (nodes, labelled edges, occurrence intervals).

    Nodes fall into :data:`FINGERPRINT_BUCKETS` buckets by the CRC-32 of their
    ``repr``; each bucket is hashed on its own (:func:`bucket_digest`) and the
    fingerprint is SHA-256 over a domain tag and the bucket digests in bucket
    order (:func:`root_digest`).  A change to one node's out-edges therefore
    changes one bucket digest, which is what lets a
    :class:`repro.graphs.store.GraphStore` rehash only the buckets a delta
    touched while batch jobs and stores keep sharing cache keys.

    Every level is SHA-256 over an unambiguous encoding, so two graphs with
    the same fingerprint are a SHA-256 collision.  A cheaper maintainable
    scheme — an additive or XOR sum of per-edge hashes — was rejected: such
    sums are forgeable with Wagner's generalised-birthday attack, and a
    fingerprint collision here would serve another graph's cached verdict.
    """
    return root_digest(graph_buckets(graph)[1])


class CompiledType:
    """Precomputed data for one type of a schema.

    The eager part (sorted alphabet, symbol set, per-symbol bounds) is what
    every check needs; the Presburger template is built lazily, the first
    time a compressed-graph check of a rule without bounds asks for it.

    ``group_bounds`` maps each symbol to its ``(lo, hi)`` occurrence bounds
    when the rule is an unordered concatenation of symbols with arbitrary
    intervals (``hi`` is ``None`` for unbounded), and is ``None`` otherwise.
    A symbol's bounds are the sum of its atoms' intervals, which is again an
    interval, so deciding such a rule by these bounds is exact under both
    semantics (:func:`repro.schema.typing.satisfies_type_groups`).

    ``allowed_labels`` are the labels of the alphabet: a node with an
    out-edge under any other label fails the rule whatever its successors'
    types.  ``required_labels`` (empty unless ``group_bounds`` is set) are
    the labels whose symbols' lower bounds sum to at least 1: a node with no
    out-edge under one of them fails too.  Both feed
    :meth:`CompiledSchema.label_seed`.  ``label_options`` maps each allowed
    label to the schema types ``τ`` with ``(label, τ)`` in the alphabet, in
    the schema's type order: the candidates an edge under that label can
    take.
    """

    __slots__ = (
        "type_name",
        "expr",
        "sorted_alphabet",
        "symbol_set",
        "group_bounds",
        "allowed_labels",
        "required_labels",
        "label_options",
        "_template",
        "_normalised",
    )

    def __init__(self, type_name: TypeName, expr: RBE, type_order: Sequence[TypeName] = ()):
        self.type_name = type_name
        self.expr = expr
        self.sorted_alphabet: Tuple[object, ...] = tuple(sorted(expr.alphabet(), key=repr))
        self.symbol_set = frozenset(self.sorted_alphabet)
        profile = as_rbe0(expr, require_basic=False)
        self.group_bounds: Optional[Dict[object, Tuple[int, Optional[int]]]] = None
        if profile is not None:
            self.group_bounds = {
                symbol: (interval.lower, interval.upper)
                for symbol, interval in profile.per_symbol_interval().items()
            }
        self.allowed_labels = frozenset(label for label, _type in self.sorted_alphabet)
        required: Dict[object, int] = {}
        for (label, _type), (lower, _upper) in (self.group_bounds or {}).items():
            required[label] = required.get(label, 0) + lower
        self.required_labels = frozenset(
            label for label, lower in required.items() if lower >= 1
        )
        self.label_options: Dict[object, Tuple[TypeName, ...]] = {
            label: tuple(
                target for target in type_order if (label, target) in self.symbol_set
            )
            for label in self.allowed_labels
        }
        self._template: Optional[Tuple[Dict[object, str], Formula]] = None
        self._normalised = None

    def presburger_template(self) -> Tuple[Dict[object, str], Formula]:
        """``(z_vars, ψ_{δ(t)}(z̄, 1))`` with stable per-type count variables.

        The formula is immutable and its internal helper variables are bound,
        so the same template can appear in arbitrarily many per-node formulas.
        The pair is assigned in one write, keeping concurrent first calls safe.
        """
        template = self._template
        if template is None:
            from repro.presburger.build import rbe_to_formula
            from repro.presburger.formula import const, fresh_variable

            z_vars = {symbol: fresh_variable("z") for symbol in self.sorted_alphabet}
            template = (z_vars, rbe_to_formula(self.expr, z_vars, const(1)))
            self._template = template
        return template

    def normalised_template(self):
        """``(z_vars, conjuncts)``: the template's DNF as normalised rows.

        Every conjunct of ``ψ_{δ(t)}(z̄, 1)`` is pre-normalised into hashable
        coefficient rows by :func:`repro.presburger.solver.formula_to_problem`,
        so per-(node, type) compressed checks assemble their linear systems by
        concatenating rows instead of rebuilding and re-normalising formula
        trees.  The template's helper variables are bound, hence renamed apart
        to unique names, and safe to share across any number of per-node
        systems (the batch solver keys variables per block); the free ``z_vars``
        keep their names.  Computed once per type.
        """
        normalised = self._normalised
        if normalised is None:
            from repro.presburger.solver import formula_to_problem

            z_vars, psi = self.presburger_template()
            normalised = (z_vars, formula_to_problem(psi))
            self._normalised = normalised
        return normalised


class CompiledSchema:
    """A schema plus every derived artifact the engines need, computed once.

    Construction is cheap (per-type artifacts, classification, and the shape
    graph are all materialised lazily); instances are reusable across any
    number of validation and containment jobs and across threads — the worst a
    race can do is compute an identical immutable artifact twice.
    """

    def __init__(self, schema: ShExSchema):
        self.schema = schema
        self.fingerprint = schema_fingerprint(schema)
        self._types: Dict[TypeName, CompiledType] = {}
        self._schema_class = None
        self._shape_graph: Optional[Graph] = None
        self._is_shex0: Optional[bool] = None
        self._type_order: Optional[Tuple[TypeName, ...]] = None
        self._labels: Optional[FrozenSet[object]] = None
        self._watchers: Optional[Dict[object, Tuple[TypeName, ...]]] = None
        self._seeds: Dict[FrozenSet[object], FrozenSet[TypeName]] = {}

    @classmethod
    def of(cls, schema: Union[ShExSchema, "CompiledSchema"]) -> "CompiledSchema":
        """Coerce: compile a schema, pass a compiled schema through unchanged."""
        if isinstance(schema, CompiledSchema):
            return schema
        return cls(schema)

    @property
    def types(self):
        """The schema's type names (delegates to the wrapped schema)."""
        return self.schema.types

    @property
    def type_order(self) -> Tuple[TypeName, ...]:
        """The schema's type names, sorted once: the deterministic iteration
        order the fixpoint kernel uses instead of per-iteration ``sorted()``."""
        if self._type_order is None:
            self._type_order = tuple(sorted(self.schema.types))
        return self._type_order

    def symbol_watchers(self) -> Dict[object, Tuple[TypeName, ...]]:
        """``(label, type) -> types whose alphabet contains that symbol``.

        The inverted alphabet index behind fine-grained dirtiness: when a node
        loses type ``τ``, a predecessor reached through label ``a`` only needs
        its type ``t`` re-checked when ``(a, τ)`` occurs in ``δ(t)`` — i.e.
        when ``t`` *watches* the symbol.  Computed once per schema.
        """
        if self._watchers is None:
            watchers: Dict[object, list] = {}
            for type_name in self.type_order:
                for symbol in self.type_artifact(type_name).sorted_alphabet:
                    watchers.setdefault(symbol, []).append(type_name)
            self._watchers = {
                symbol: tuple(types) for symbol, types in watchers.items()
            }
        return self._watchers

    def label_seed(self, labels: FrozenSet[object]) -> FrozenSet[TypeName]:
        """The types a node whose out-edges carry exactly ``labels`` may have.

        A type is kept when its allowed labels contain ``labels`` and
        ``labels`` contain its required labels (see :class:`CompiledType`).
        Every dropped type fails the node's check under any typing of its
        successors, so seeding the fixpoint with these types instead of all
        of ``Γ`` leaves the greatest fixpoint unchanged.  Under the compressed
        semantics the caller leaves out labels seen only on edges of
        multiplicity 0, which count for nothing.  Memoised per label set; a
        set with a label no rule mentions has the empty seed and is not
        memoised, so the memo only grows with combinations of schema labels.
        """
        seed = self._seeds.get(labels)
        if seed is None:
            if self._labels is None:
                self._labels = frozenset(self.schema.labels())
            if not labels <= self._labels:
                return frozenset()
            artifacts = [self.type_artifact(type_name) for type_name in self.type_order]
            seed = self._seeds[labels] = frozenset(
                artifact.type_name
                for artifact in artifacts
                if labels <= artifact.allowed_labels
                and artifact.required_labels <= labels
            )
        return seed

    def type_artifact(self, type_name: TypeName) -> CompiledType:
        """The (interned) per-type artifact for ``type_name``."""
        artifact = self._types.get(type_name)
        if artifact is None:
            artifact = CompiledType(
                type_name, self.schema.definition(type_name), self.type_order
            )
            self._types[type_name] = artifact
        return artifact

    @property
    def schema_class(self):
        """The schema's position in the paper's hierarchy (Figure 7), cached."""
        if self._schema_class is None:
            from repro.schema.classes import schema_class

            self._schema_class = schema_class(self.schema)
        return self._schema_class

    @property
    def is_shex0(self) -> bool:
        """Whether the schema is in ShEx0 (cached after the first check)."""
        if self._is_shex0 is None:
            from repro.schema.classes import is_shex0

            self._is_shex0 = is_shex0(self.schema)
        return self._is_shex0

    @property
    def shape_graph(self) -> Graph:
        """The shape-graph form of the schema (requires ShEx0), cached."""
        if self._shape_graph is None:
            from repro.schema.convert import schema_to_shape_graph

            self._shape_graph = schema_to_shape_graph(self.schema)
        return self._shape_graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledSchema {self.schema.name!r} fp={self.fingerprint[:12]}>"


# Per-process intern table: compiling is idempotent, so worker processes (and
# repeated single-call wrappers) can share compiled artifacts by fingerprint.
_INTERNED: Dict[str, CompiledSchema] = {}
_INTERN_LIMIT = 256


def compile_schema(schema: Union[ShExSchema, CompiledSchema]) -> CompiledSchema:
    """Compile (or intern) a schema; the cached instance is keyed by content."""
    if isinstance(schema, CompiledSchema):
        return schema
    fingerprint = schema_fingerprint(schema)
    compiled = _INTERNED.get(fingerprint)
    if compiled is None:
        compiled = CompiledSchema(schema)
        if len(_INTERNED) >= _INTERN_LIMIT:
            _INTERNED.clear()
        _INTERNED[compiled.fingerprint] = compiled
    return compiled
