"""repro.engine — a batched, parallel, cache-aware validation & containment engine.

The one-shot entry points of the library (:func:`repro.schema.validation.validate`,
:func:`repro.containment.api.contains`) recompile their schemas and rebuild
every derived artifact per call.  This subsystem turns them into a reusable
service layer:

* :class:`CompiledSchema` — per-type alphabets, RBE0 bounds, Presburger
  templates, classification, and shape graphs, computed once and interned by
  content fingerprint;
* :class:`ValidationEngine` / :class:`ContainmentEngine` — ``submit`` /
  ``run_batch`` APIs that fan independent jobs out to a pluggable executor
  (``serial``, ``thread``, ``process``) and serve repeated jobs from an LRU
  cache keyed by content hashes (optionally persisted on disk via
  :class:`DiskResultCache` / ``cache_dir``);
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
    "repro.engine.cache": ("CacheStats", "DiskResultCache", "LRUCache"),
    "repro.engine.compiled": (
        "CompiledSchema",
        "CompiledType",
        "compile_schema",
        "graph_fingerprint",
        "schema_fingerprint",
    ),
    "repro.engine.containment": ("ContainmentEngine",),
    "repro.engine.executors": (
        "BACKENDS",
        "ProcessExecutor",
        "SerialExecutor",
        "ThreadExecutor",
        "get_executor",
    ),
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
