"""repro.engine — a batched, parallel, cache-aware validation & containment engine.

The one-shot entry points of the library (:func:`repro.schema.validation.validate`,
:func:`repro.containment.api.contains`) recompile their schemas and rebuild
every derived artifact per call.  This subsystem turns them into a reusable
service layer:

* :class:`CompiledSchema` — per-type alphabets, RBE0 bounds, Presburger
  templates, classification, and shape graphs, computed once and interned by
  content fingerprint;
* :class:`ValidationEngine` / :class:`ContainmentEngine` — ``submit`` /
  ``run_batch`` APIs that fan independent jobs out to an :class:`Executor`
  (``serial``, ``thread`` or ``process``, all behind one ``submit`` call)
  and serve repeated jobs from an in-memory LRU cache keyed by content
  hashes; the asyncio front-end (:mod:`repro.serve.async_engine`) drives
  the same per-job lifecycle;
* :func:`maximal_typing_fixpoint` — the shared fixpoint kernel under both
  validation semantics (:mod:`repro.engine.fixpoint`): fine-grained
  ``(node, type)`` dirtiness, neighbourhood-signature memoisation, batched
  Presburger solving;
* :mod:`repro.engine.manifest` — declarative batch manifests for the
  ``shex-containment batch`` CLI subcommand;
* :class:`JobResult` / :class:`EngineReport` — structured outcomes with
  timings and cache statistics, byte-identical across backends.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.engine.cache": ("CacheStats", "LRUCache"),
    "repro.engine.compiled": (
        "CompiledSchema",
        "CompiledType",
        "compile_schema",
        "graph_fingerprint",
        "schema_fingerprint",
    ),
    "repro.engine.containment": ("ContainmentEngine",),
    "repro.engine.executors": ("BACKENDS", "Executor", "get_executor"),
    "repro.engine.fixpoint": (
        "FixpointStats",
        "affected_region",
        "maximal_typing_fixpoint",
        "retype_incremental",
    ),
    "repro.engine.jobs": ("ContainmentJob", "EngineReport", "JobResult", "ValidationJob"),
    "repro.engine.manifest": ("ManifestEntry", "load_jobs", "load_manifest", "parse_manifest"),
    "repro.engine.validation": ("RevalidationOutcome", "ValidationEngine"),
})
