"""Data directories written by earlier builds open and checkpoint as they did.

``tests/fixtures/format2/store`` was left on disk by the last format-2 build
(``tests/fixtures/format2/make_fixture.py``): one store with tuple node ids,
a number label, an unbounded interval, a typing snapshot and a three-record
WAL tail.  ``expected.json`` holds what that build read back.  A copy must
open here with the same graph, typings, version and fingerprint, and be
rewritten as format 3 on the way.

``tests/fixtures/format3/store`` was written by the last build whose graphs
kept a dict per node and an object per edge
(``tests/fixtures/format3/make_fixture.py``).  Its ``snapshot-3.json`` is
what that build checkpointed after reopening generation 2 and replaying a
WAL that adds and removes edges.  A checkpoint here must write the same
snapshot, outside ``created_at``, from either generation.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.engine.compiled import graph_fingerprint
from repro.persist import CURRENT_FORMAT, DurableStore, read_manifest

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "format2")
FORMAT3 = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "format3", "store")


@pytest.fixture
def upgraded(tmp_path):
    directory = str(tmp_path / "store")
    shutil.copytree(os.path.join(FIXTURE, "store"), directory)
    assert read_manifest(directory)["format"] == 2
    store = DurableStore.open(directory)
    yield directory, store
    store.close()


def _expected():
    with open(os.path.join(FIXTURE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_format2_fixture_opens_with_its_recorded_state(upgraded):
    directory, store = upgraded
    expected = _expected()
    assert store.version == expected["version"]
    assert store.recovery["replayed"] == 3
    assert sorted(map(repr, store.graph.nodes)) == expected["nodes"]
    assert sorted(
        repr((e.source, e.label, e.target, e.occur.lower, e.occur.upper))
        for e in store.graph.edges
    ) == expected["edges"]
    assert [
        {
            "schema": entry["schema"],
            "compressed": entry["compressed"],
            "version": entry["version"],
            "typing": sorted(
                repr((node, sorted(types))) for node, types in entry["typing"].items()
            ),
        }
        for entry in store.restored_typings
    ] == expected["typings"]
    assert store.fingerprint() == expected["fingerprint"]
    assert graph_fingerprint(store.graph) == expected["fingerprint"]
    assert read_manifest(directory)["format"] == CURRENT_FORMAT
    for name in os.listdir(directory):
        if name.startswith("snapshot-"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                assert json.load(handle)["format"] == CURRENT_FORMAT


def test_upgraded_store_checkpoints_and_reopens_warm(upgraded):
    directory, store = upgraded
    expected = _expected()
    store.checkpoint([
        {key: entry[key] for key in ("schema", "compressed", "version", "typing")}
        for entry in store.restored_typings
    ])
    store.close()
    reopened = DurableStore.open(directory)
    try:
        assert reopened.version == expected["version"]
        assert reopened._fp_members is not None  # the checkpoint wrote the buckets
        assert reopened.fingerprint() == expected["fingerprint"]
        assert len(reopened.restored_typings) == len(expected["typings"])
    finally:
        reopened.close()


def _snapshot(directory, generation):
    """A snapshot's keys and values in file order, ``created_at`` left out."""
    with open(os.path.join(directory, f"snapshot-{generation}.json"), encoding="utf-8") as handle:
        pairs = json.load(handle, object_pairs_hook=list)
    return [(key, value) for key, value in pairs if key != "created_at"]


@pytest.mark.parametrize("generation", [3, 2])
def test_format3_fixture_checkpoints_to_the_same_snapshot(tmp_path, generation):
    directory = str(tmp_path / "store")
    shutil.copytree(FORMAT3, directory)
    if generation == 2:
        # Without snapshot 3 the open falls back to snapshot 2 and replays
        # its WAL, whose removals leave tombstones in the graph's columns.
        os.remove(os.path.join(directory, "snapshot-3.json"))
        os.remove(os.path.join(directory, "wal-3.log"))
    store = DurableStore.open(directory)
    try:
        assert store.generation == generation
        assert store.recovery["replayed"] == (3 if generation == 2 else 0)
        store.checkpoint(store.restored_typings)
        written = _snapshot(directory, store.generation)
    finally:
        store.close()
    assert written == _snapshot(FORMAT3, 3)
