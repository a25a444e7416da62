"""The documentation suite stays executable: doctests run, links and references resolve."""

import pathlib
import sys

import pytest

DOCS_DIR = pathlib.Path(__file__).resolve().parents[2] / "docs"
sys.path.insert(0, str(DOCS_DIR))

import check_docs  # noqa: E402 — docs/check_docs.py, imported from its directory


def test_docs_tree_exists():
    for name in ("architecture.md", "protocol.md", "api.md"):
        assert (DOCS_DIR / name).exists(), f"docs/{name} is missing"


@pytest.mark.parametrize("path", check_docs.doc_files(), ids=lambda p: p.name)
def test_doctests_pass(path):
    failed, attempted = check_docs.run_doctests(path)
    assert failed == 0, f"{failed} of {attempted} doctest example(s) failed in {path.name}"


@pytest.mark.parametrize("path", check_docs.doc_files(), ids=lambda p: p.name)
def test_relative_links_resolve(path):
    assert check_docs.broken_links(path) == []


@pytest.mark.parametrize("path", check_docs.doc_files(), ids=lambda p: p.name)
def test_attribute_references_resolve(path):
    assert check_docs.stale_references(path) == []


def test_stale_reference_is_reported(tmp_path):
    doc = tmp_path / "stale.md"
    doc.write_text(
        "Call `GraphStore.diff(v1, v2)` or `repro.graphs.store.GraphStore.version`,\n"
        "not `GraphStore.no_such_method()`; `Unexported.anything` is skipped.\n"
        "```\n`GraphStore.inside_a_fence`\n```\n",
        encoding="utf-8",
    )
    assert check_docs.stale_references(doc) == ["GraphStore.no_such_method"]


def test_api_doc_actually_contains_examples():
    # Guard against the doctest pass silently checking nothing.
    failed, attempted = check_docs.run_doctests(DOCS_DIR / "api.md")
    assert attempted >= 10 and failed == 0
