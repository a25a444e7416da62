"""Batch manifests: declare many (data, schema) validation jobs in one file.

Two formats are accepted, chosen by file extension:

* ``.json`` — ``{"jobs": [{"data": "g.ttl", "schema": "s.shex",
  "ntriples": false, "label": "optional"}, ...]}``;
* anything else — a plain text file with one ``data-path schema-path`` pair per
  line; blank lines and ``#`` comments are ignored.

Relative paths are resolved against the manifest's directory.  Whether a data
file is N-Triples is autodetected from the ``.nt`` extension unless the JSON
entry pins ``"ntriples"`` explicitly.  Loading is cached per path, so a
manifest that validates fifty graphs against one schema parses that schema
once.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engine.jobs import ValidationJob
from repro.errors import ManifestError
from repro.graphs.graph import Graph
from repro.rdf.convert import load_graph
from repro.schema.parser import parse_schema
from repro.schema.shex import ShExSchema


@dataclass(frozen=True)
class ManifestEntry:
    """One declared job: paths (already resolved) plus parse options."""

    data: str
    schema: str
    ntriples: Optional[bool] = None
    label: str = ""

    @property
    def data_is_ntriples(self) -> bool:
        """Whether the data file parses as N-Triples (pinned or ``.nt``-detected)."""
        if self.ntriples is not None:
            return self.ntriples
        return self.data.endswith(".nt")


def parse_manifest(text: str, name: str = "", base_dir: str = "") -> List[ManifestEntry]:
    """Parse manifest text (JSON when ``name`` ends in ``.json``, else plain)."""
    if name.endswith(".json"):
        return _parse_json_manifest(text, name, base_dir)
    return _parse_plain_manifest(text, name, base_dir)


def _resolve(base_dir: str, path: str) -> str:
    if not base_dir or os.path.isabs(path):
        return path
    return os.path.join(base_dir, path)


def _parse_plain_manifest(text: str, name: str, base_dir: str) -> List[ManifestEntry]:
    entries: List[ManifestEntry] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ManifestError(
                f"{name or 'manifest'}:{line_number}: expected 'data-path schema-path', "
                f"got {line!r}"
            )
        data, schema = parts
        entries.append(
            ManifestEntry(
                data=_resolve(base_dir, data),
                schema=_resolve(base_dir, schema),
                label=f"{data} vs {schema}",
            )
        )
    return entries


def _parse_json_manifest(text: str, name: str, base_dir: str) -> List[ManifestEntry]:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{name}: invalid JSON manifest: {exc}") from exc
    jobs = document.get("jobs") if isinstance(document, dict) else None
    if not isinstance(jobs, list):
        raise ManifestError(f"{name}: a JSON manifest must be an object with a 'jobs' list")
    entries: List[ManifestEntry] = []
    for position, job in enumerate(jobs):
        if not isinstance(job, dict) or "data" not in job or "schema" not in job:
            raise ManifestError(
                f"{name}: job #{position} must be an object with 'data' and 'schema' keys"
            )
        ntriples = job.get("ntriples")
        if ntriples is not None and not isinstance(ntriples, bool):
            raise ManifestError(f"{name}: job #{position}: 'ntriples' must be a boolean")
        entries.append(
            ManifestEntry(
                data=_resolve(base_dir, job["data"]),
                schema=_resolve(base_dir, job["schema"]),
                ntriples=ntriples,
                label=job.get("label", f"{job['data']} vs {job['schema']}"),
            )
        )
    return entries


def load_manifest(path: str) -> List[ManifestEntry]:
    """Read and parse a manifest file; paths resolve against its directory."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_manifest(text, name=path, base_dir=os.path.dirname(os.path.abspath(path)))


def load_jobs(entries: List[ManifestEntry]) -> List[ValidationJob]:
    """Materialise manifest entries into validation jobs, caching file loads."""
    schemas: Dict[str, ShExSchema] = {}
    graphs: Dict[str, Graph] = {}
    jobs: List[ValidationJob] = []
    for entry in entries:
        schema = schemas.get(entry.schema)
        if schema is None:
            with open(entry.schema, "r", encoding="utf-8") as handle:
                schema = parse_schema(handle.read(), name=entry.schema)
            schemas[entry.schema] = schema
        graph = graphs.get(entry.data)
        if graph is None:
            with open(entry.data, "r", encoding="utf-8") as handle:
                text = handle.read()
            graph = load_graph(text, ntriples=entry.data_is_ntriples, name=entry.data)
            graphs[entry.data] = graph
        jobs.append(ValidationJob(graph=graph, schema=schema, label=entry.label))
    return jobs
