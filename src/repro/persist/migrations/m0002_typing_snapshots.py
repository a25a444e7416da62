"""Format 2: snapshots carry the engine's typing snapshots.

Format-1 snapshots persisted the graph, delta log, and kind partition but
not the :class:`~repro.engine.validation.ValidationEngine` typing snapshots,
so a reopened daemon still paid one full retype per schema.  Format 2 adds a
``"typings"`` list to every snapshot (empty for migrated directories — the
first post-upgrade checkpoint fills it in).  An unreadable snapshot (a torn
write) is left alone; the open skips it as it skips any unreadable
generation.
"""

from __future__ import annotations

import glob
import json
import os

from repro.persist.atomic import write_json_atomic

TO_FORMAT = 2


def apply(directory: str, manifest: dict) -> None:
    for path in sorted(glob.glob(os.path.join(directory, "snapshot-*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except ValueError:
            continue  # torn: the open skips it too
        if not isinstance(snapshot, dict) or "typings" in snapshot:
            continue
        snapshot["typings"] = []
        snapshot["format"] = TO_FORMAT
        write_json_atomic(path, snapshot)
