"""Documentation checks: doctests, relative links and attribute references.

Three checks, all cheap enough for tier-1:

* **doctests** — every ``>>>`` example in the documentation executes and
  produces exactly the output shown (``python -m doctest`` semantics, one
  shared namespace per file);
* **links** — every relative markdown link ``[text](target)`` resolves to a
  file in the repository (anchors are stripped; external ``http(s)://`` and
  ``mailto:`` links are skipped);
* **references** — every inline-code ``Class.attr`` reference whose ``Class``
  is a class exported by a ``repro`` lazy-export table
  (:func:`repro._lazy.lazy_exports`) names an attribute the class has
  (``hasattr``), so docs cannot keep describing a deleted method.

Run as a script (``PYTHONPATH=src python docs/check_docs.py``; exit status 1
on any failure) — CI's docs job does — or through
``tests/unit/test_docs.py``, which keeps the examples honest on every local
test run.
"""

from __future__ import annotations

import doctest
import functools
import importlib
import inspect
import pathlib
import re
import sys
from typing import Dict, List, Tuple

DOCS_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = DOCS_DIR.parent

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
_CODE_SPAN = re.compile(r"`([^`]+)`")
# Lookahead so overlapping pairs match: `a.B.c` yields (a, B) and (B, c).
_DOTTED = re.compile(r"(?=\b([A-Za-z_]\w*)\.([A-Za-z_]\w*))")


def doc_files() -> List[pathlib.Path]:
    """Every markdown file under ``docs/`` plus the top-level README."""
    return sorted(DOCS_DIR.glob("*.md")) + [REPO_ROOT / "README.md"]


def run_doctests(path: pathlib.Path) -> Tuple[int, int]:
    """Run one file's doctests; returns (failures, attempts)."""
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.ELLIPSIS,
        verbose=False,
    )
    return results.failed, results.attempted


def broken_links(path: pathlib.Path) -> List[str]:
    """Relative links in ``path`` that do not resolve to an existing file."""
    missing = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            missing.append(target)
    return missing


@functools.lru_cache(maxsize=None)
def exported_classes() -> Dict[str, type]:
    """Every class named in a ``repro`` package's lazy-export table, by name."""
    import repro

    package_dir = pathlib.Path(repro.__file__).parent
    classes: Dict[str, type] = {}
    for init in sorted(package_dir.rglob("__init__.py")):
        if "lazy_exports(" not in init.read_text(encoding="utf-8"):
            continue
        parts = init.parent.relative_to(package_dir.parent).parts
        package = importlib.import_module(".".join(parts))
        for name in package.__all__:
            value = getattr(package, name)
            if inspect.isclass(value):
                classes[name] = value
    return classes


def stale_references(path: pathlib.Path) -> List[str]:
    """Inline-code ``Class.attr`` references in ``path`` that do not resolve."""
    classes = exported_classes()
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    stale = []
    for span in _CODE_SPAN.findall(text):
        for owner, attr in _DOTTED.findall(span):
            if owner in classes and not hasattr(classes[owner], attr):
                stale.append(f"{owner}.{attr}")
    return stale


def main() -> int:
    status = 0
    for path in doc_files():
        failed, attempted = run_doctests(path)
        label = path.relative_to(REPO_ROOT)
        if failed:
            print(f"FAIL {label}: {failed} of {attempted} doctest example(s) failed")
            status = 1
        else:
            print(f"ok   {label}: {attempted} doctest example(s)")
        for target in broken_links(path):
            print(f"FAIL {label}: broken relative link -> {target}")
            status = 1
        for reference in stale_references(path):
            print(f"FAIL {label}: stale attribute reference -> {reference}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
