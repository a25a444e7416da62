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
* **Deltas** — ``{"add": [[s, label, t, occur], ...], "remove": [...]}``
  with encoded endpoints, mirroring :meth:`repro.graphs.store.Delta.to_json`
  but safe for non-string node ids.
* **Typings** — sorted ``[[node, [type, ...]], ...]`` pair lists.

Decoding checks each tag's payload type and each interval's bounds (ints,
not bools, ``0 <= lower <= upper``): a malformed value raises
:class:`repro.errors.PersistError` instead of decoding to something else.

Encoding is deterministic (sorted pairs, sorted type lists), so identical
states produce byte-identical snapshots — handy for parity tests and for
content-comparison of generations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.intervals import Interval
from repro.errors import PersistError
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
    """Decode ``[[source, label, target, occur], ...]`` into edge 4-tuples,
    the input :meth:`repro.graphs.graph.Graph.from_edges` takes."""
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
# Typings
# --------------------------------------------------------------------------- #
def encode_typing(typing: Typing) -> List[list]:
    """Encode a typing as a sorted ``[[node, [types...]], ...]`` pair list."""
    pairs = [
        [encode_node(node), sorted(types)]
        for node, types in typing.as_dict().items()
    ]
    pairs.sort(key=repr)
    return pairs


def decode_typing(pairs: Any) -> Typing:
    """Inverse of :func:`encode_typing`; nodes with equal type lists share
    one ``frozenset``."""
    if not isinstance(pairs, list):
        raise PersistError(f"cannot decode persisted typing: {pairs!r}")
    shared: Dict[Tuple[str, ...], FrozenSet[str]] = {}
    assignments: Dict[NodeId, FrozenSet[str]] = {}
    for pair in pairs:
        if (pair.__class__ is list or pair.__class__ is tuple) and len(pair) == 2:
            node, types = pair
            if types.__class__ is list or types.__class__ is tuple:
                key = tuple(types)
                try:
                    type_set = shared.get(key)
                except TypeError:  # an unhashable entry, rejected just below
                    type_set = None
                if type_set is None:
                    if not all(name.__class__ is str for name in key):
                        raise PersistError(f"cannot decode persisted typing entry: {pair!r}")
                    type_set = shared[key] = frozenset(key)
                assignments[decode_node(node)] = type_set
                continue
        raise PersistError(f"cannot decode persisted typing entry: {pair!r}")
    return Typing(assignments)
