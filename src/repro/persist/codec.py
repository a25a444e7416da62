"""JSON codec for the persistence layer.

Everything :mod:`repro.persist` writes to disk is JSON, but the in-memory
model is richer than JSON: node ids are arbitrary hashables (the clone
workloads use ``(copy_index, iri)`` tuples), occurrence intervals carry an
``∞`` upper bound, and typings map nodes to *sets* of type names.  This
module defines the lossless, deterministic encoding shared by snapshots and
the write-ahead log:

* **Nodes** — plain strings encode as themselves; every other supported
  value becomes a single-key tagged object: ``{"t": [...]}`` for tuples
  (recursively), ``{"i": n}`` for ints, ``{"b": x}`` for bools, ``{"f": x}``
  for floats, ``{"n": true}`` for ``None``.  Decoding is the exact inverse,
  so ``decode_node(encode_node(x)) == x`` and tuple node ids stay hashable.
* **Intervals** — a ``[lower, upper]`` pair with ``null`` for ``∞`` (the
  in-memory convention of :class:`repro.core.intervals.Interval` itself).
  Decoding shares one :class:`Interval` per distinct pair.
* **Deltas** (the WAL and a snapshot's log tail) —
  ``{"add": [[s, label, t, occur], ...], "remove": [...]}`` with encoded
  endpoints, mirroring :meth:`repro.graphs.store.Delta.to_json` but safe for
  non-string node ids.
* **Graphs** (snapshots, columnar) — a ``nodes`` table of encoded node ids,
  a ``labels`` table, an ``occurs`` table of interval pairs, and ``edges``,
  one flat list ``[source, label, target, occur, ...]`` of indices into
  those tables (:func:`encode_graph` / :func:`decode_graph`), the graph's
  own columns in table form.  Each node and interval is decoded once,
  however many edges name it, and no edge becomes an object of its own.
* **Typings** (snapshots, columnar) — a ``typesets`` table of sorted type
  lists and a ``typeset_of`` column with one index per node of the node
  table, ``-1`` where the typing does not list the node
  (:func:`encode_typing` / :func:`decode_typing`).
* **Fingerprint buckets** (snapshots) — the scheme tag, the 256 bucket
  digests in hex and the node table's bucket offsets
  (:func:`encode_fingerprint` / :func:`decode_fingerprint`).

Decoding checks each tag's payload type, each interval's bounds (ints, not
bools, ``0 <= lower <= upper``), each label's class (a JSON scalar), each
type name's class (``str``), and each index: an int, not a bool, inside
its table, with columns as long as the table they index.  A malformed
value raises :class:`repro.errors.PersistError` instead of decoding to
something else.

Encoding is deterministic (sorted tables and pairs, sorted type lists), so
identical states produce byte-identical snapshots — handy for parity tests
and for content-comparison of generations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.intervals import Interval
from repro.errors import GraphError, PersistError
from repro.graphs.graph import Graph
from repro.graphs.store import Delta
from repro.schema.typing import Typing

NodeId = Hashable


# --------------------------------------------------------------------------- #
# Nodes
# --------------------------------------------------------------------------- #
def encode_node(node: NodeId) -> Any:
    """Encode one node id as a JSON-safe value (see module docstring)."""
    if isinstance(node, str):
        return node
    if isinstance(node, bool):  # before int: bool is an int subclass
        return {"b": node}
    if isinstance(node, int):
        return {"i": node}
    if isinstance(node, float):
        return {"f": node}
    if node is None:
        return {"n": True}
    if isinstance(node, tuple):
        return {"t": [encode_node(part) for part in node]}
    raise PersistError(
        f"cannot persist node id of type {type(node).__name__}: {node!r}"
    )


#: The payload class of each scalar tag (exact: a bool is not an ``"i"``).
_PAYLOAD_CLASS = {"i": int, "b": bool, "f": float}


def decode_node(value: Any) -> NodeId:
    """Inverse of :func:`encode_node`; a malformed value raises :class:`PersistError`."""
    if isinstance(value, str):
        return value
    if isinstance(value, dict) and len(value) == 1:
        ((tag, payload),) = value.items()
        if tag == "t" and isinstance(payload, (list, tuple)):
            return tuple(decode_node(part) for part in payload)
        if _PAYLOAD_CLASS.get(tag) is payload.__class__:
            return payload
        if tag == "n" and payload is True:
            return None
    raise PersistError(f"cannot decode persisted node id: {value!r}")


def decode_nodes(values: Any) -> List[NodeId]:
    """Decode a snapshot's node table (string ids skip the tag decoder)."""
    if values.__class__ is not list:
        raise PersistError(f"cannot decode persisted node table: {values!r}")
    return [value if value.__class__ is str else decode_node(value) for value in values]


# --------------------------------------------------------------------------- #
# Intervals
# --------------------------------------------------------------------------- #
def encode_occur(occur: Interval) -> List[Optional[int]]:
    return [occur.lower, occur.upper]


def decode_occur(pair: Any) -> Interval:
    """Inverse of :func:`encode_occur`: bounds must be ints (not bools) with
    ``0 <= lower <= upper``, ``upper`` ``None`` for ``∞``."""
    if (pair.__class__ is list or pair.__class__ is tuple) and len(pair) == 2:
        lower, upper = pair
        if lower.__class__ is int and (upper is None or upper.__class__ is int):
            return _interval(lower, upper)
    raise PersistError(f"cannot decode persisted interval: {pair!r}")


@lru_cache(maxsize=4096)
def _interval(lower: int, upper: Optional[int]) -> Interval:
    """One shared :class:`Interval` per distinct pair (intervals are immutable)."""
    if 0 <= lower and (upper is None or lower <= upper):
        return Interval(lower, upper)
    raise PersistError(f"cannot decode persisted interval: {[lower, upper]!r}")


# --------------------------------------------------------------------------- #
# Edges and deltas
# --------------------------------------------------------------------------- #
def _encode_entries(entries) -> List[list]:
    return [
        [encode_node(source), label, encode_node(target), encode_occur(occur)]
        for source, label, target, occur in entries
    ]


def decode_edges(entries: Any) -> List[Tuple[NodeId, str, NodeId, Interval]]:
    """Decode a delta side, ``[[source, label, target, occur], ...]``, into
    edge 4-tuples."""
    if not isinstance(entries, (list, tuple)):
        raise PersistError(f"cannot decode persisted edges: {entries!r}")
    decoded = []
    append = decoded.append
    for entry in entries:
        if (entry.__class__ is list or entry.__class__ is tuple) and len(entry) == 4:
            # Labels are stored as given: a store takes any JSON scalar
            # label a client sends, so decoding must take it back too.
            source, label, target, occur = entry
            append((decode_node(source), label, decode_node(target), decode_occur(occur)))
            continue
        raise PersistError(f"cannot decode persisted edge: {entry!r}")
    return decoded


def encode_delta(delta: Delta) -> Dict[str, list]:
    """Encode a :class:`Delta` with arbitrary (hashable) node ids."""
    return {
        "add": _encode_entries(delta.added),
        "remove": _encode_entries(delta.removed),
    }


def decode_delta(payload: Any) -> Delta:
    """Inverse of :func:`encode_delta`."""
    if not isinstance(payload, dict):
        raise PersistError(f"cannot decode persisted delta: {payload!r}")
    return Delta(
        added=tuple(decode_edges(payload.get("add", ()))),
        removed=tuple(decode_edges(payload.get("remove", ()))),
    )


# --------------------------------------------------------------------------- #
# Columnar graph tables
# --------------------------------------------------------------------------- #
#: The classes a persisted label may have: the JSON scalars.
_LABEL_CLASSES = frozenset({str, int, float, bool, type(None)})


def _check_indices(column: Any, size: int, what: str, lowest: int = 0) -> None:
    """``column`` is a list of ints (not bools) in ``[lowest, size)``."""
    if column.__class__ is not list:
        raise PersistError(f"cannot decode persisted {what}: {column!r}")
    if not column:
        return
    if not set(map(type, column)) <= {int}:
        raise PersistError(f"persisted {what} holds a non-integer index")
    if min(column) < lowest or max(column) >= size:
        raise PersistError(
            f"persisted {what} holds an index outside [{lowest}, {size})"
        )


def _label_key(label: Any) -> Tuple[type, Any]:
    """A label keyed by its class too: ``1``, ``1.0`` and ``True`` stay distinct."""
    return label.__class__, label


def encode_graph(
    graph: Graph, nodes: Sequence[NodeId], index: Mapping[NodeId, int]
) -> Dict[str, list]:
    """The ``labels``, ``occurs`` and ``edges`` tables of ``graph``, read
    off its columns, over the node table ``nodes`` that ``index`` numbers.

    Labels sort by ``repr`` and intervals by bound.  The rows go out per
    source in node-table order, each source's out-list sorted, so the
    tables depend only on the edge multiset and the node table.
    """
    row_of, out, _, source, label, target, occur = graph.adjacency()
    ids = list(chain.from_iterable(map(out.__getitem__, map(row_of.__getitem__, nodes))))
    keys = list(map(label.__getitem__, ids))
    # Labels of different classes can be equal (1, 1.0, True) and must stay
    # apart; a str equals no other class, so str labels key by themselves.
    keyed = not all(value.__class__ is str for value in set(keys))
    if keyed:
        keys = list(map(_label_key, keys))
    distinct = dict.fromkeys(keys)
    labels = sorted((key[1] for key in distinct) if keyed else distinct, key=repr)
    label_index = {
        (_label_key(entry) if keyed else entry): position
        for position, entry in enumerate(labels)
    }
    # One representative per interval object: edges share ONE and friends.
    occurs = list(map(occur.__getitem__, ids))
    idents = list(map(id, occurs))
    shared = dict(zip(idents, occurs))
    pairs = sorted(
        {(interval.lower, interval.upper) for interval in shared.values()},
        key=lambda pair: (pair[0], pair[1] is None, pair[1] or 0),
    )
    pair_index = {pair: position for position, pair in enumerate(pairs)}
    occur_index = {
        ident: pair_index[(interval.lower, interval.upper)]
        for ident, interval in shared.items()
    }
    # The sources come in table order already, so the sort only reorders
    # rows within one source's out-list.
    entries = sorted(zip(
        map(index.__getitem__, map(source.__getitem__, ids)),
        map(label_index.__getitem__, keys),
        map(index.__getitem__, map(target.__getitem__, ids)),
        map(occur_index.__getitem__, idents),
    ))
    return {
        "labels": labels,
        "occurs": [list(pair) for pair in pairs],
        "edges": list(chain.from_iterable(entries)),
    }


def decode_graph(
    snapshot: Mapping[str, Any], nodes: List[NodeId], name: str = ""
) -> Graph:
    """The graph of a snapshot's columnar tables over the decoded ``nodes``:
    each column is sliced out of the flat ``edges`` list, and the graph
    takes the label and interval columns, mapped through their tables, as
    its own (:meth:`Graph.from_table`)."""
    labels = snapshot.get("labels", [])
    if labels.__class__ is not list or not set(map(type, labels)) <= _LABEL_CLASSES:
        raise PersistError(f"cannot decode persisted label table: {labels!r}")
    occurs_table = snapshot.get("occurs", [])
    if occurs_table.__class__ is not list:
        raise PersistError(f"cannot decode persisted interval table: {occurs_table!r}")
    occurs = [decode_occur(pair) for pair in occurs_table]
    flat = snapshot.get("edges", [])
    if flat.__class__ is not list or len(flat) % 4:
        raise PersistError("persisted edge list is not a flat list of 4-index rows")
    # One type and one sign check over the whole list; an index past its
    # table's end raises IndexError on lookup.
    _check_indices(flat, max(len(nodes), len(labels), len(occurs)), "edge")
    try:
        return Graph.from_table(
            nodes,
            flat[0::4],
            list(map(labels.__getitem__, flat[1::4])),
            flat[2::4],
            list(map(occurs.__getitem__, flat[3::4])),
            name,
        )
    except IndexError:
        raise PersistError("persisted edge list holds an index outside its table") from None
    except GraphError as exc:
        raise PersistError(f"cannot decode persisted graph: {exc}") from None


# --------------------------------------------------------------------------- #
# Typings
# --------------------------------------------------------------------------- #
def encode_typing(typing: Typing, index: Mapping[NodeId, int]) -> Dict[str, list]:
    """A typing as a ``typesets`` table and a ``typeset_of`` column over the
    node table ``index`` numbers (``-1`` for nodes the typing does not list).

    Every node the typing lists must be in the table: a store never drops
    nodes, so a missing one is an error, not something to leave out.
    """
    column = [-1] * len(index)
    set_ids: Dict[FrozenSet[str], int] = {}
    for node, types in typing.items():
        position = index.get(node)
        if position is None:
            raise PersistError(
                f"typing lists node {node!r}, which is not in the snapshot's node table"
            )
        ident = set_ids.get(types)
        if ident is None:
            ident = set_ids[types] = len(set_ids)
        column[position] = ident
    typesets = sorted((sorted(types), ident) for types, ident in set_ids.items())
    renumber = [0] * len(typesets)
    for position, (_names, ident) in enumerate(typesets):
        renumber[ident] = position
    return {
        "typesets": [names for names, _ident in typesets],
        "typeset_of": [ident if ident < 0 else renumber[ident] for ident in column],
    }


def decode_typing(entry: Mapping[str, Any], nodes: Sequence[NodeId]) -> Typing:
    """Inverse of :func:`encode_typing` over the decoded node table: nodes
    with equal type lists share one ``frozenset``."""
    typesets = entry.get("typesets")
    if typesets.__class__ is not list:
        raise PersistError(f"cannot decode persisted typesets: {typesets!r}")
    shared: List[FrozenSet[str]] = []
    for names in typesets:
        if names.__class__ is not list or not all(name.__class__ is str for name in names):
            raise PersistError(f"cannot decode persisted typeset: {names!r}")
        shared.append(frozenset(names))
    column = entry.get("typeset_of")
    if column.__class__ is not list or len(column) != len(nodes):
        raise PersistError(
            f"persisted typeset column does not have one entry per node "
            f"({len(nodes)} nodes)"
        )
    _check_indices(column, len(shared), "typeset index", lowest=-1)
    return Typing.frozen(
        {node: shared[ident] for node, ident in zip(nodes, column) if ident >= 0}
    )


# --------------------------------------------------------------------------- #
# Fingerprint buckets
# --------------------------------------------------------------------------- #
def bucket_table(
    members: Mapping[int, Iterable[NodeId]], buckets: int
) -> Tuple[List[NodeId], List[Any], List[int]]:
    """``(nodes, encoded, offsets)``: the node table grouped by fingerprint
    bucket, each bucket's nodes sorted by their encoding, and the
    ``buckets + 1`` offsets where each bucket's run starts (the last one is
    the table's length)."""
    nodes: List[NodeId] = []
    encoded: List[Any] = []
    offsets = [0]
    for bucket in range(buckets):
        group = members.get(bucket, ())
        if group:
            rows = sorted(
                ((encode_node(node), node) for node in group), key=lambda row: repr(row[0])
            )
            encoded.extend(value for value, _node in rows)
            nodes.extend(node for _value, node in rows)
        offsets.append(len(nodes))
    return nodes, encoded, offsets


def encode_fingerprint(
    scheme: str, digests: Sequence[bytes], offsets: List[int]
) -> Dict[str, Any]:
    """The persisted fingerprint section: scheme tag, hex digests, offsets."""
    return {
        "scheme": scheme,
        "digests": [digest.hex() for digest in digests],
        "offsets": offsets,
    }


def decode_fingerprint(
    section: Any, nodes: Sequence[NodeId], scheme: str, buckets: int
) -> Optional[Tuple[Dict[int, Set[NodeId]], List[bytes]]]:
    """``(members, digests)`` of a persisted fingerprint section, or ``None``
    when there is none or it was written under another ``scheme``.

    A section of this scheme must be whole: ``buckets`` 32-byte hex
    digests and ``buckets + 1`` non-decreasing offsets from 0 to the node
    table's length.
    """
    if section is None:
        return None
    if section.__class__ is not dict:
        raise PersistError(f"cannot decode persisted fingerprint: {section!r}")
    if section.get("scheme") != scheme:
        return None
    digests = section.get("digests")
    if digests.__class__ is not list or len(digests) != buckets:
        raise PersistError(
            f"persisted fingerprint does not hold {buckets} bucket digests"
        )
    try:
        decoded = [bytes.fromhex(text) for text in digests]
    except (TypeError, ValueError):
        raise PersistError("persisted fingerprint holds a malformed digest") from None
    if any(len(digest) != 32 for digest in decoded):
        raise PersistError("persisted fingerprint holds a digest of the wrong length")
    offsets = section.get("offsets")
    if offsets.__class__ is not list or len(offsets) != buckets + 1:
        raise PersistError(
            f"persisted fingerprint does not hold {buckets + 1} bucket offsets"
        )
    _check_indices(offsets, len(nodes) + 1, "bucket offset")
    if offsets[0] != 0 or offsets[-1] != len(nodes) or any(
        low > high for low, high in zip(offsets, offsets[1:])
    ):
        raise PersistError("persisted bucket offsets do not cover the node table in order")
    members = {
        bucket: set(nodes[low:high])
        for bucket, (low, high) in enumerate(zip(offsets, offsets[1:]))
        if low < high
    }
    return members, decoded
