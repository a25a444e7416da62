"""Write the format-3 data directory ``store/``.

The directory holds one store with tuple node ids, a number label, an
unbounded interval and a persisted typing snapshot.  Generation 2 is that
snapshot plus a three-record WAL tail that adds and removes edges;
generation 3 is what a reopen of generation 2 (the WAL replayed) wrote
when checkpointed with its restored typings.  A later build must write
``snapshot-3.json`` again, byte for byte outside ``created_at``, both from
generation 3 and from generation 2 and its WAL
(``tests/integration/test_persist_upgrade.py``).  It was written by commit
77db77a, the last build whose graphs kept a dict per node and an object
per edge::

    PYTHONPATH=<that checkout>/src python tests/fixtures/format3/make_fixture.py
"""

from __future__ import annotations

import os
import shutil
import sys

from repro.engine.validation import ValidationEngine
from repro.graphs.graph import Graph
from repro.graphs.store import Delta
from repro.persist import CURRENT_FORMAT, DurableStore
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    if CURRENT_FORMAT != 3:
        print(f"this build writes format {CURRENT_FORMAT}; run a format-3 build", file=sys.stderr)
        return 2
    directory = os.path.join(HERE, "store")
    shutil.rmtree(directory, ignore_errors=True)
    base = bug_tracker_graph()
    graph = Graph.from_edges(
        ((copy, e.source), e.label, (copy, e.target), e.occur)
        for copy in range(2)
        for e in base.edges
    )
    bug, bug2, bug3 = (f"http://example.org/bugs#bug{n}" for n in (1, 2, 3))
    graph.add_edge((0, bug), 5, (1, bug), (2, None))
    store = DurableStore.create(directory, graph, name="columnar", fsync="always")
    with ValidationEngine(cache_size=0) as engine:
        engine.revalidate(store, bug_tracker_schema())
        store.checkpoint(engine.export_typings(store))
    for delta in (
        Delta.of(add=[
            ((1, bug), "related", (0, bug)),
            ((0, bug), 7, ("fresh", 1), "*"),
            ((1, bug), "email", (1, bug2)),  # appended, but sorts inside the out-list
        ]),
        Delta.of(remove=[((0, bug), 5, (1, bug), (2, None))]),
        Delta.of(
            add=[((1, bug), 5, ("fresh", 1), 3)],
            remove=[((1, bug), "related", (0, bug)), ((1, bug2), "related", (1, bug3))],
        ),
    ):
        store.apply(delta)
    store.close()
    reopened = DurableStore.open(directory)
    reopened.checkpoint(reopened.restored_typings)
    reopened.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
