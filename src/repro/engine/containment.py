"""The batched, parallel, cache-aware containment engine.

:class:`ContainmentEngine` runs many ``L(S1) ⊆ L(S2)`` checks as one batch:
schemas are compiled once per distinct content (classification and shape
graphs are the expensive shared parts), results are cached by the fingerprint
pair plus the search options, and cache misses fan out to the configured
executor backend.  The counter-example searches are seeded, so payloads are
deterministic and byte-identical across backends.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.engine.base import BatchEngine
from repro.engine.compiled import CompiledSchema, compile_schema, schema_fingerprint
from repro.engine.jobs import ContainmentJob
from repro.schema.shex import ShExSchema

JobLike = Union[ContainmentJob, Tuple[ShExSchema, ShExSchema]]


def _job_worker(job: ContainmentJob) -> Tuple[str, Dict]:
    """Run one containment job to a deterministic (verdict, payload) pair.

    Module-level, hence picklable: it runs on every backend.
    """
    # Imported on first use: a daemon that never answers ``contains`` (a
    # warm restart, a validation-only service) never loads the package.
    from repro.containment.api import contains_compiled

    options = dict(job.options)
    result = contains_compiled(
        compile_schema(job.left), compile_schema(job.right), **options
    )
    counterexample = None
    if result.counterexample is not None:
        counterexample = tuple(
            sorted(
                f"{source!r} -{label}-> {target!r}"
                for source, label, target in result.counterexample.triples()
            )
        )
    payload = {
        "method": result.method,
        "left_class": str(result.left_class),
        "right_class": str(result.right_class),
        "counterexample": counterexample,
    }
    return result.verdict.value, payload


class ContainmentEngine(BatchEngine):
    """Batch containment with pluggable executors and a fingerprint-keyed cache.

    Usage::

        engine = ContainmentEngine(backend="process")
        engine.submit(old_schema, new_schema)
        engine.submit(new_schema, old_schema, max_nodes=20)
        report = engine.run_batch()
    """

    kind = "containment"

    def compile(self, schema: Union[ShExSchema, CompiledSchema]) -> CompiledSchema:
        """Compile a schema through the shared per-process intern table."""
        return compile_schema(schema)

    def submit(
        self,
        left: Union[ShExSchema, CompiledSchema],
        right: Union[ShExSchema, CompiledSchema],
        label: str = "",
        **options,
    ) -> int:
        """Queue ``L(left) ⊆ L(right)``; extra keywords tune the search budgets."""
        left_compiled = self.compile(left)
        right_compiled = self.compile(right)
        self._pending.append(
            ContainmentJob.make(
                left_compiled.schema, right_compiled.schema, label=label, **options
            )
        )
        return len(self._pending) - 1

    # ------------------------------------------------------------------ #
    # BatchEngine hooks
    # ------------------------------------------------------------------ #
    def _coerce_job(self, job: JobLike) -> ContainmentJob:
        if isinstance(job, ContainmentJob):
            return job
        left, right = job
        return ContainmentJob(left, right)

    def _key_job(self, job: ContainmentJob, memo: Dict) -> Tuple:
        # Schema fingerprints are memoized by object identity per batch, so a
        # round-robin of one schema against many others hashes it once.
        fingerprints = []
        for schema in (job.left, job.right):
            schema_key = ("schema", id(schema))
            fingerprint = memo.get(schema_key)
            if fingerprint is None:
                fingerprint = schema_fingerprint(schema)
                memo[schema_key] = fingerprint
            fingerprints.append(fingerprint)
        return ("containment", fingerprints[0], fingerprints[1], job.options)

    _job_worker = staticmethod(_job_worker)
