"""Write the format-2 data directory ``store/`` and its ``expected.json``.

The directory holds what a format-2 build left on disk: one store with
tuple node ids, a number label, an unbounded interval, a persisted typing
snapshot and a three-record WAL tail.  ``expected.json`` records what a
reopen must give back.  It was written by the last format-2 build (commit
1a88853); later builds migrate instead of writing format 2, so run it with
such a build's ``src`` first on ``PYTHONPATH``::

    PYTHONPATH=<format-2 checkout>/src python tests/fixtures/format2/make_fixture.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from repro.engine.compiled import graph_fingerprint
from repro.engine.validation import ValidationEngine
from repro.graphs.graph import Graph
from repro.graphs.store import Delta
from repro.persist import CURRENT_FORMAT, DurableStore
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema

HERE = os.path.dirname(os.path.abspath(__file__))


def _edges(graph):
    return sorted(
        repr((e.source, e.label, e.target, e.occur.lower, e.occur.upper)) for e in graph.edges
    )


def main() -> int:
    if CURRENT_FORMAT != 2:
        print(f"this build writes format {CURRENT_FORMAT}; run a format-2 build", file=sys.stderr)
        return 2
    directory = os.path.join(HERE, "store")
    shutil.rmtree(directory, ignore_errors=True)
    base = bug_tracker_graph()
    graph = Graph.from_edges(
        ((copy, e.source), e.label, (copy, e.target), e.occur)
        for copy in range(2)
        for e in base.edges
    )
    bug = "http://example.org/bugs#bug1"
    graph.add_edge((0, bug), 5, (1, bug), (2, None))
    store = DurableStore.create(directory, graph, name="legacy", fsync="always")
    schema = bug_tracker_schema()
    with ValidationEngine(cache_size=0) as engine:
        engine.revalidate(store, schema)
        store.checkpoint(engine.export_typings(store))
    for delta in (
        Delta.of(add=[((1, bug), "related", (0, bug))]),
        Delta.of(add=[((0, bug), 7, ("fresh", 1), "*")]),
        Delta.of(remove=[((0, bug), 5, (1, bug), (2, None))]),
    ):
        store.apply(delta)
    store.close()
    expected = {
        "version": store.version,
        "fingerprint": graph_fingerprint(store.graph),
        "nodes": sorted(map(repr, store.graph.nodes)),
        "edges": _edges(store.graph),
    }
    reopened = DurableStore.open(directory)
    expected["typings"] = [
        {
            "schema": snapshot["schema"],
            "compressed": snapshot["compressed"],
            "version": snapshot["version"],
            "typing": sorted(
                repr((node, sorted(types))) for node, types in snapshot["typing"].items()
            ),
        }
        for snapshot in reopened.restored_typings
    ]
    reopened.close()
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
