"""Ordered on-disk format migrations for :mod:`repro.persist`.

The graph-directory ``MANIFEST.json`` records the on-disk format version it
was written with.  When :func:`repro.persist.store.DurableStore.open` finds
an older format, it runs every registered migration *above* that version, in
order, before loading anything — the snapshot/ordered-migration pattern of
the kuberdock exemplar (``updates/scripts/`` + ``kdmigrations/``) the
ROADMAP references.  A manifest written by a *newer* format than this build
understands is refused outright (clear error, no partial load): downgrades
are not supported.

Writing a migration:

1. add ``m{NNNN}_{slug}.py`` next to this file with ``TO_FORMAT = N`` and
   ``def apply(directory: str, manifest: dict) -> None`` that rewrites the
   directory's files in place through
   :func:`repro.persist.atomic.write_json_atomic` (a crash mid-migration
   must leave either the old or the new state);
2. append it to :data:`MIGRATIONS` below, keeping the list sorted;
3. bump :data:`CURRENT_FORMAT` to ``N``.

``apply`` may mutate ``manifest`` (sans ``format``); the runner persists the
manifest with the migration's ``TO_FORMAT`` after each successful step, so
an interrupted chain resumes exactly where it stopped.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import PersistError
from repro.persist.migrations import (
    m0001_initial_layout,
    m0002_typing_snapshots,
    m0003_columnar_snapshots,
)

#: The on-disk format this build reads and writes.
CURRENT_FORMAT = 3

#: Every known migration, sorted by target format.
MIGRATIONS = (m0001_initial_layout, m0002_typing_snapshots, m0003_columnar_snapshots)


def check_ordering() -> None:
    targets = [migration.TO_FORMAT for migration in MIGRATIONS]
    if targets != sorted(targets) or len(set(targets)) != len(targets):
        raise PersistError(f"migration chain out of order: {targets}")
    if targets[-1] != CURRENT_FORMAT:
        raise PersistError(
            f"migration chain ends at format {targets[-1]}, "
            f"but CURRENT_FORMAT is {CURRENT_FORMAT}"
        )


def pending(format_version: int) -> List[Any]:
    """The migrations needed to bring ``format_version`` up to date."""
    if format_version > CURRENT_FORMAT:
        raise PersistError(
            f"data directory uses on-disk format {format_version}, but this "
            f"build only understands up to format {CURRENT_FORMAT} — refusing "
            f"to load (upgrade the library or use a matching data directory)"
        )
    check_ordering()
    return [m for m in MIGRATIONS if m.TO_FORMAT > format_version]


def migrate(directory: str, manifest: Dict[str, Any], write_manifest) -> Dict[str, Any]:
    """Run every pending migration over ``directory``, persisting after each.

    ``write_manifest(directory, manifest)`` is injected by the caller (the
    store module owns atomic manifest writes).  Returns the final manifest.
    """
    for migration in pending(int(manifest.get("format", 0))):
        migration.apply(directory, manifest)
        manifest["format"] = migration.TO_FORMAT
        write_manifest(directory, manifest)
    return manifest
