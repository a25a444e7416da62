"""A data directory written by a format-2 build opens through migration m0003.

``tests/fixtures/format2/store`` was left on disk by the last format-2 build
(``tests/fixtures/format2/make_fixture.py``): one store with tuple node ids,
a number label, an unbounded interval, a typing snapshot and a three-record
WAL tail.  ``expected.json`` holds what that build read back.  A copy must
open here with the same graph, typings, version and fingerprint, and be
rewritten as format 3 on the way.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.engine.compiled import graph_fingerprint
from repro.persist import CURRENT_FORMAT, DurableStore, read_manifest

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "format2")


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
