"""Format 3: columnar snapshots with persisted fingerprint buckets.

Format-2 snapshots list every edge as ``[source, label, target, [lower,
upper]]`` with its endpoints encoded again per edge, and every typing as a
``[[node, [types...]], ...]`` pair list, so a reopen decodes the same node
once per mention.  Format 3 keeps one ``nodes`` table, a ``labels`` and an
``occurs`` table, a flat ``edges`` list of indices into them, and per typing
a ``typesets`` table with a ``typeset_of`` column over the node table (see
:mod:`repro.persist.codec`).  Snapshots written by this build also carry
the fingerprint's bucket digests and the node table's bucket offsets.

This migration rewrites each format-2 snapshot in place, atomically, at the
JSON level: node, label and interval values are copied as they are and
checked when the store opens.  The node table keeps the snapshot's order,
with any edge endpoint it lacks appended; a typing that lists a node
outside it raises :class:`repro.errors.PersistError`.  Migrated snapshots
carry no fingerprint section (the first ``fingerprint()`` after the open
hashes every bucket, and the next checkpoint writes the buckets).  The
``partition`` section and the ``kind_typing`` / ``epoch`` fields older
snapshots may hold are dropped.  An unreadable snapshot (a torn write) is
left alone; the open skips it as it skips any unreadable generation.  This
is the only code that reads the format-2 edge and typing layout.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, List, Tuple

from repro.errors import PersistError
from repro.persist.atomic import write_json_atomic

TO_FORMAT = 3


def _key(value: Any) -> Any:
    """A hashable key for one JSON value, distinct across classes."""
    if value.__class__ is str:
        return value
    return ("repr", repr(value))


def _rows(value: Any, width: int) -> bool:
    """``value`` is a list of lists of ``width`` items each."""
    return value.__class__ is list and all(
        row.__class__ is list and len(row) == width for row in value
    )


def _table(values: List[Any]) -> Tuple[Dict[Any, int], List[Any]]:
    """The distinct values sorted by ``repr``, and each one's position
    (keyed by :func:`_key`)."""
    distinct: Dict[Any, Any] = {}
    for value in values:
        distinct.setdefault(_key(value), value)
    ordered = sorted(distinct.items(), key=lambda item: repr(item[1]))
    index = {key: position for position, (key, _value) in enumerate(ordered)}
    return index, [value for _unused, value in ordered]


def columnar(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The format-3 snapshot of a format-2 one (a new dict)."""
    nodes = snapshot.get("nodes", [])
    rows = snapshot.get("edges", [])
    if nodes.__class__ is not list or not _rows(rows, 4):
        raise PersistError("cannot migrate a format-2 snapshot's node or edge list")
    node_index: Dict[Any, int] = {}
    table: List[Any] = []
    for value in nodes + [end for row in rows for end in (row[0], row[2])]:
        key = _key(value)
        if key not in node_index:
            node_index[key] = len(table)
            table.append(value)
    label_index, labels = _table([row[1] for row in rows])
    occur_index, occurs = _table([row[3] for row in rows])
    flat = sorted(
        (node_index[_key(s)], label_index[_key(a)], node_index[_key(t)], occur_index[_key(o)])
        for s, a, t, o in rows
    )
    typings = []
    for entry in snapshot.get("typings", ()):
        pairs = entry.get("typing") if entry.__class__ is dict else None
        if not _rows(pairs, 2):
            raise PersistError(f"cannot migrate persisted typing: {entry!r}")
        set_index, typesets = _table([types for _node, types in pairs])
        column = [-1] * len(table)
        for node, types in pairs:
            position = node_index.get(_key(node))
            if position is None:
                raise PersistError(
                    f"persisted typing lists node {node!r}, which is not in the graph"
                )
            column[position] = set_index[_key(types)]
        typings.append(
            {
                "schema": entry["schema"],
                "compressed": entry["compressed"],
                "version": entry["version"],
                "typesets": typesets,
                "typeset_of": column,
            }
        )
    migrated = {
        key: value
        for key, value in snapshot.items()
        if key not in ("nodes", "edges", "typings", "partition")
    }
    migrated.update(
        format=TO_FORMAT,
        nodes=table,
        labels=labels,
        occurs=occurs,
        edges=[index for row in flat for index in row],
        typings=typings,
    )
    return migrated


def apply(directory: str, manifest: dict) -> None:
    for path in sorted(glob.glob(os.path.join(directory, "snapshot-*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except ValueError:
            continue  # torn: the open skips it too
        if not isinstance(snapshot, dict) or int(snapshot.get("format", 1)) >= TO_FORMAT:
            continue
        migrated = columnar(snapshot)
        write_json_atomic(path, migrated)
