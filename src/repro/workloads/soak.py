"""The fault-injected soak harness: long randomized runs with live oracles.

The serve stack (daemon, client, engines, caches) is exercised by every unit
test for a handful of requests; :class:`SoakRunner` exercises it for *hundreds
to thousands* of weighted random operations — graph updates, incremental
revalidations, document validations, containment checks, and (against a
durable daemon) checkpoint/kill/warm-restart bounces — while continuously
checking the answers against the independent oracles of
:mod:`repro.schema.reference` and the containment ground truths that hold by
construction.  Runs are reproducible from the :class:`SoakSpec` alone (one
seeded RNG drives every choice), can target a live daemon or the in-process
engines, and optionally run under a :mod:`repro.faults` schedule — the run
then also asserts that every injected fault is *recovered* (client retries,
version-guarded replays, cache quarantine) rather than surfaced.

On an invariant violation the runner shrinks: the recorded update sequence is
greedily minimized (bounded by ``max_shrink_replays`` fresh in-process
replays) to a small failing prefix before :class:`SoakFailure` is raised, so
a soak that fails after 900 steps hands you a reproduction with a handful of
deltas instead of a transcript.

The report dict (written to ``BENCH_soak.json`` by the ``shex-containment
soak`` CLI and ``benchmarks/bench_soak.py``) carries per-op and per-mode
counts, ops/s, the invariant-check tally, and fault/recovery totals::

    spec = SoakSpec(steps=250, seed=1234, fault="mixed")
    report = SoakRunner(spec, DaemonTarget(client, "soak")).run()
    assert report["faults"]["unrecovered"] == 0
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import faults
from repro.engine.containment import ContainmentEngine
from repro.engine.jobs import ValidationJob
from repro.engine.validation import ValidationEngine
from repro.errors import DaemonError, ReproError
from repro.graphs.store import Delta, GraphStore
from repro.obs import metrics as _obs_metrics
from repro.rdf.convert import load_graph
from repro.schema.reference import maximal_typing_reference
from repro.workloads.bugtracker import (
    bug_tracker_refactored_schema,
    bug_tracker_schema,
)
from repro.workloads.generators import grow_schema_chain

_REG = _obs_metrics.get_registry()
_M_STEPS = _REG.counter(
    "repro_soak_steps_total", "Soak operations executed, by op.", labels=("op",)
)
_M_CHECKS = _REG.counter(
    "repro_soak_invariant_checks_total",
    "Oracle invariant checks run by the soak harness, by outcome.",
    labels=("outcome",),
)
_M_RECOVERIES = _REG.counter(
    "repro_soak_recoveries_total",
    "Faults the harness recovered from, by recovery kind.",
    labels=("kind",),
)
_M_SHRINKS = _REG.counter(
    "repro_soak_shrink_replays_total",
    "Shrinking replays spent minimizing a failing soak sequence.",
)


class SoakError(ReproError):
    """The soak run could not proceed (unrecovered fault, bad target)."""


class SoakFailure(SoakError):
    """An invariant violation survived shrinking.

    :attr:`report` is the partial run report; :attr:`shrunk` is the minimal
    failing update sequence (a list of delta JSON objects) found within the
    shrink budget.
    """

    def __init__(self, message: str, report: Dict[str, Any], shrunk: List[Dict]):
        super().__init__(message)
        self.report = report
        self.shrunk = shrunk


# --------------------------------------------------------------------------- #
# Spec
# --------------------------------------------------------------------------- #
def _default_weights() -> Dict[str, float]:
    return {"update": 0.5, "revalidate": 0.25, "validate": 0.15, "contains": 0.1}


@dataclass
class SoakSpec:
    """Everything that determines a soak run (the report's ``spec`` object).

    ``steps`` bounds the number of operations (``duration``, when set, stops
    the run after that many seconds instead — whichever comes first);
    ``family``/``size`` pick the workload graph (``size`` disjoint copies of
    the bug-tracker instance); ``churn`` is the removal fraction of update
    deltas, ``hotspot`` the probability an update hits copy 0; ``batch`` is
    the job count of one validate operation; ``check_every`` the step period
    of the full oracle checks; ``compressed`` pins the revalidation semantics
    (``None`` = mixed); ``containment_chain`` the length of the
    grown-by-relaxation schema chain; ``fault`` names a
    :data:`repro.faults.SCHEDULES` entry (``None`` = no injection); and
    ``max_shrink_replays`` bounds the shrinking budget on failure.
    """

    steps: int = 250
    duration: Optional[float] = None
    seed: int = 1234
    family: str = "bugtracker"
    size: int = 4
    churn: float = 0.4
    hotspot: float = 0.25
    batch: int = 3
    check_every: int = 5
    compressed: Optional[bool] = None
    containment_chain: int = 3
    fault: Optional[str] = None
    max_shrink_replays: int = 160
    weights: Dict[str, float] = field(default_factory=_default_weights)

    def to_json(self) -> Dict[str, Any]:
        """The spec as the JSON-safe ``spec`` object of the report."""
        return {
            "batch": self.batch,
            "check_every": self.check_every,
            "churn": self.churn,
            "compressed": self.compressed,
            "containment_chain": self.containment_chain,
            "duration": self.duration,
            "family": self.family,
            "fault": self.fault,
            "hotspot": self.hotspot,
            "max_shrink_replays": self.max_shrink_replays,
            "seed": self.seed,
            "size": self.size,
            "steps": self.steps,
            "weights": dict(sorted(self.weights.items())),
        }


# --------------------------------------------------------------------------- #
# Workload family
# --------------------------------------------------------------------------- #
_COPY_BLOCK = """
ex:{c}_bug1 ex:descr "Boom!{i}" ;
        ex:reportedBy ex:{c}_user1 ;
        ex:reproducedBy ex:{c}_emp1 ;
        ex:related ex:{c}_bug2 .
ex:{c}_bug2 ex:descr "Kaboom!{i}" ;
        ex:reportedBy ex:{c}_user2 ;
        ex:related ex:{c}_bug1 ;
        ex:related ex:{c}_bug3 .
ex:{c}_bug3 ex:descr "Kabang!{i}" ;
        ex:reportedBy ex:{c}_user1 .
ex:{c}_bug4 ex:descr "Bang!{i}" ;
        ex:reportedBy ex:{c}_user2 .
ex:{c}_user1 ex:name "John{i}" .
ex:{c}_user2 ex:name "Mary{i}" ;
         ex:email "m{i}@h.org" .
ex:{c}_emp1 ex:name "Steve{i}" ;
        ex:email "stv{i}@m.pl" .
"""

_PREFIX = "http://example.org/bugs#"


def family_turtle(size: int) -> str:
    """``size`` disjoint copies of the Figure 1 bug-tracker instance.

    Copies use per-copy IRIs *and* per-copy literal strings, so no node —
    not even a literal — is shared between copies: an update inside one copy
    can only affect that copy's typing.
    """
    blocks = ["@prefix ex: <http://example.org/bugs#> .\n"]
    for index in range(size):
        blocks.append(_COPY_BLOCK.format(c=f"c{index}", i=index))
    return "".join(blocks)


def _copy_bugs(graph, copy_index: int) -> List[str]:
    """The bug nodes of one copy, sorted for deterministic sampling."""
    marker = f"{_PREFIX}c{copy_index}_bug"
    return sorted(
        node for node in graph.nodes
        if isinstance(node, str) and node.startswith(marker)
    )


# --------------------------------------------------------------------------- #
# Targets: the system under soak, behind one small interface
# --------------------------------------------------------------------------- #
class InProcessTarget:
    """Drive the engines directly — no daemon, no socket.

    The baseline target: the same operations the daemon would perform, minus
    the serve stack.  Useful to soak the engine layer alone and as the
    replay vehicle for shrinking.
    """

    def __init__(self, backend: str = "serial", cache_size: int = 4096):
        self.validation = ValidationEngine(backend=backend, cache_size=cache_size)
        self.containment = ContainmentEngine(backend=backend, cache_size=cache_size)
        self._schemas: Dict[str, Any] = {}
        self._store: Optional[GraphStore] = None

    def load_schema(self, key: str, schema) -> None:
        self._schemas[key] = schema
        self.validation.compile(schema)

    def register_graph(self, text: str) -> None:
        graph = load_graph(text, name="soak")
        self._store = GraphStore(graph)

    def update(self, delta_json: Dict, expect_version: Optional[int]) -> Dict[str, Any]:
        store = self._store
        if expect_version is not None and store.version != expect_version:
            raise DaemonError(
                f"store is at version {store.version}, expected {expect_version}",
                "version-conflict",
            )
        delta = Delta.from_json(delta_json)
        store.apply(delta)
        return {"version": store.version}

    def revalidate(self, schema_key: str, compressed: bool) -> Dict[str, Any]:
        outcome = self.validation.revalidate(
            self._store, self._schemas[schema_key], compressed=compressed
        )
        return {
            "verdict": outcome.result.verdict,
            "untyped_nodes": list(outcome.result.payload["untyped_nodes"]),
            "version": outcome.version,
            "mode": outcome.mode,
        }

    def validate_batch(self, docs: List[str], schema_key: str) -> List[str]:
        schema = self._schemas[schema_key]
        jobs = [
            ValidationJob(
                graph=load_graph(text, name="doc"),
                schema=schema,
            )
            for text in docs
        ]
        report = self.validation.run_batch(jobs)
        return [result.verdict for result in report.results]

    def contains(self, left_key: str, right_key: str) -> str:
        self.containment.submit(self._schemas[left_key], self._schemas[right_key])
        report = self.containment.run_batch()
        return report.results[0].verdict

    def graph_version(self) -> int:
        return self._store.version

    def graph_counts(self) -> Tuple[int, int]:
        return self._store.graph.node_count, self._store.graph.edge_count

    def close(self) -> None:
        self.validation.close()
        self.containment.close()


class DaemonTarget:
    """Drive a live daemon through a :class:`repro.serve.client.DaemonClient`.

    The client's auto-reconnect/retry machinery is part of the system under
    test: the target simply issues requests, and the runner's recovery
    accounting reads the client's ``reconnects``/``retried_requests``
    counters afterwards.

    ``restarter``, when given, makes the target restartable: a callable that
    kills the daemon, starts a fresh one on the same address and ``--data-dir``,
    and returns a connected client.  The runner's ``restart`` op then
    checkpoints, bounces the daemon through it, and requires the recovered
    store to match the mirror exactly.
    """

    def __init__(self, client, graph_name: str = "soak", restarter=None):
        self.client = client
        self.graph_name = graph_name
        self.restarter = restarter
        self._schema_texts: Dict[str, str] = {}
        self._retired_retries = 0
        self._retired_reconnects = 0

    def load_schema(self, key: str, schema) -> None:
        # str(schema) is the paper's rule notation, which the daemon's
        # schema parser reads back — a lossless round-trip.
        text = str(schema)
        self._schema_texts[key] = text
        self.client.load_schema(key, text=text)

    def register_graph(self, text: str) -> None:
        self.client.update_graph(self.graph_name, data_text=text)

    def update(self, delta_json: Dict, expect_version: Optional[int]) -> Dict[str, Any]:
        return self.client.update_graph(
            self.graph_name, delta=delta_json, expect_version=expect_version
        )

    def revalidate(self, schema_key: str, compressed: bool) -> Dict[str, Any]:
        return self.client.revalidate(
            self.graph_name, schema_key, compressed=compressed
        )

    def validate_batch(self, docs: List[str], schema_key: str) -> List[str]:
        summary = self.client.batch_validate(
            [{"schema": schema_key, "data": {"text": text}} for text in docs]
        )
        return [entry["verdict"] for entry in summary["results"]]

    def contains(self, left_key: str, right_key: str) -> str:
        return self.client.contains(left_key, right_key)["verdict"]

    def checkpoint(self) -> Dict[str, Any]:
        return self.client.checkpoint(self.graph_name)

    def restart(self) -> None:
        """Bounce the daemon (via ``restarter``) and adopt the new client.

        The outgoing client's retry counters are banked first so the run's
        fault accounting survives the swap.
        """
        if self.restarter is None:
            raise SoakError("this daemon target has no restarter")
        old = self.client
        self._retired_retries += getattr(old, "retried_requests", 0)
        self._retired_reconnects += getattr(old, "reconnects", 0)
        try:
            old.close()
        except Exception:  # noqa: BLE001 — the daemon may already be gone
            pass
        self.client = self.restarter()

    def graph_version(self) -> int:
        return self.client.status()["graphs"][self.graph_name]["version"]

    def graph_counts(self) -> Tuple[int, int]:
        entry = self.client.status()["graphs"][self.graph_name]
        return entry["nodes"], entry["edges"]

    def close(self) -> None:
        self.client.close()


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #
class SoakRunner:
    """Execute one :class:`SoakSpec` against a target, oracles always on.

    The runner keeps a *mirror* :class:`GraphStore` in-process: every delta
    is derived from (and applied to) the mirror, so it always knows the exact
    graph the target should hold, and the reference oracle runs against the
    mirror while the target answers over the wire.  Divergence — version,
    counts, verdicts, typing — is an invariant violation.
    """

    #: Bounded per-operation retry on top of the client's own retries.
    OP_ATTEMPTS = 4

    def __init__(self, spec: SoakSpec, target):
        if spec.family != "bugtracker":
            raise SoakError(f"unknown workload family {spec.family!r}")
        self.spec = spec
        self.target = target
        self.rng = random.Random(spec.seed)
        self.ops: Dict[str, int] = {"update": 0, "revalidate": 0, "validate": 0,
                                    "contains": 0}
        if spec.weights.get("restart", 0) > 0:
            # Restarts only make sense against a durable daemon: the target
            # must know how to bounce itself (DaemonTarget with a restarter).
            if getattr(target, "restarter", None) is None:
                raise SoakError(
                    "spec weights a 'restart' op but the target has no "
                    "restarter (pass DaemonTarget(..., restarter=...))"
                )
            self.ops["restart"] = 0
        self.modes: Dict[str, int] = {}
        self.restart_modes: Dict[str, int] = {}
        self.checks_passed = 0
        self.op_retries = 0
        self.unrecovered = 0
        self.shrink_replays = 0
        self._removed_pool: List[Tuple[str, str, str]] = []
        self._oplog: List[Dict] = []  # applied update deltas, in order
        self._schema = bug_tracker_schema()
        self._refactored = bug_tracker_refactored_schema()
        self._chain = grow_schema_chain(
            self._schema, spec.containment_chain, rng=random.Random(spec.seed)
        )
        self._docs: List[str] = []
        self._doc_verdicts: List[str] = []

    # -- setup ---------------------------------------------------------- #
    def _setup(self) -> None:
        spec = self.spec
        text = family_turtle(spec.size)
        graph = load_graph(text, name="soak-mirror")
        self.mirror = GraphStore(graph)
        self.target.load_schema("soak-main", self._schema)
        self.target.load_schema("soak-refactored", self._refactored)
        for index, schema in enumerate(self._chain):
            self.target.load_schema(f"soak-chain{index}", schema)
        self.target.register_graph(text)
        # Static validate documents with precomputed oracle verdicts: the
        # full instance (valid) and one with a bug's description stripped
        # (invalid — the bug and its referrers lose their types).
        valid_doc = family_turtle(max(spec.size // 2, 1))
        broken_doc = valid_doc.replace('ex:descr "Boom!0" ;', "", 1)
        self._docs = [valid_doc, broken_doc]
        self._doc_verdicts = [
            self._oracle_verdict(doc) for doc in self._docs
        ]

    def _oracle_verdict(self, text: str) -> str:
        graph = load_graph(text, name="doc")
        typing = maximal_typing_reference(graph, self._schema)
        untyped = [node for node in graph.nodes if not typing.types_of(node)]
        return "valid" if not untyped else "invalid"

    # -- op-level retry ------------------------------------------------- #
    def _attempt(self, op: str, call):
        """Run one target call with bounded retries over recoverable errors.

        The client already retries transport failures and pre-execution
        rejections; this layer adds a second bound for faults that surface
        as structured errors (an injected solver/executor crash answered as
        ``internal-error``) and counts every recovery.
        """
        last: Optional[Exception] = None
        for attempt in range(self.OP_ATTEMPTS):
            try:
                result = call()
                if attempt:
                    self.op_retries += 1
                    if _obs_metrics.STATE.enabled:
                        _M_RECOVERIES.labels(kind="op-retry").inc()
                return result
            except DaemonError as exc:
                if exc.code == "version-conflict":
                    raise  # reconciled by the caller, not retried blindly
                if exc.code not in (
                    "internal-error", "deadline-exceeded", "overloaded",
                    "connection-closed",
                ):
                    raise
                last = exc
            except faults.InjectedFault as exc:
                # In-process targets surface solver/executor injections
                # directly; a retry recomputes (failed jobs are never cached).
                last = exc
            except OSError as exc:
                last = exc
            time.sleep(0.01 * (attempt + 1))
        self.unrecovered += 1
        raise SoakError(
            f"operation {op!r} failed after {self.OP_ATTEMPTS} attempts: {last}"
        ) from last

    def _check(self, condition: bool, message: str) -> None:
        if condition:
            self.checks_passed += 1
            if _obs_metrics.STATE.enabled:
                _M_CHECKS.labels(outcome="passed").inc()
            return
        if _obs_metrics.STATE.enabled:
            _M_CHECKS.labels(outcome="failed").inc()
        self._fail(message)

    # -- operations ----------------------------------------------------- #
    def _pick_copy(self) -> int:
        if self.rng.random() < self.spec.hotspot:
            return 0
        return self.rng.randrange(self.spec.size)

    def _make_delta(self) -> Optional[Dict]:
        """One random, always-applicable delta against the mirror."""
        graph = self.mirror.graph
        copy_index = self._pick_copy()
        remove: List[Tuple[str, str, str]] = []
        add: List[Tuple[str, str, str]] = []
        for _ in range(self.rng.randrange(1, 3)):
            if self.rng.random() < self.spec.churn:
                # Remove one existing out-edge of this copy's bug nodes.
                # Sorted so the pick is independent of edge-insertion order,
                # which is not stable across processes: the run must be
                # bit-reproducible from (seed, spec) alone.
                candidates = sorted(
                    (edge.source, edge.label, edge.target)
                    for bug in _copy_bugs(graph, copy_index)
                    for edge in graph.out_edges(bug)
                )
                candidates = [c for c in candidates if c not in remove]
                if candidates:
                    remove.append(candidates[self.rng.randrange(len(candidates))])
            elif self._removed_pool and self.rng.random() < 0.5:
                entry = self._removed_pool.pop(
                    self.rng.randrange(len(self._removed_pool))
                )
                source, label, target = entry
                if (
                    graph.has_node(source)
                    and target not in graph.successors(source, label)
                    and entry not in add
                ):
                    add.append(entry)
            else:
                bugs = _copy_bugs(graph, copy_index)
                source = bugs[self.rng.randrange(len(bugs))]
                target = bugs[self.rng.randrange(len(bugs))]
                entry = (source, "related", target)
                if (
                    source != target
                    and target not in graph.successors(source, "related")
                    and entry not in add
                ):
                    add.append(entry)
        if not remove and not add:
            return None
        self._removed_pool.extend(remove)
        return Delta.of(add=add, remove=remove).to_json()

    def _op_update(self) -> None:
        delta_json = self._make_delta()
        if delta_json is None:
            return
        expect = self.mirror.version
        try:
            answer = self._attempt(
                "update", lambda: self.target.update(delta_json, expect)
            )
        except DaemonError as exc:
            if exc.code != "version-conflict":
                raise
            # A replayed delta raced its own lost response: the daemon
            # applied it, the retry was rejected by the version guard.
            # Reconcile: the target must sit exactly one version ahead.
            version = self._attempt("status", self.target.graph_version)
            self._check(
                version == expect + 1,
                f"version-conflict reconcile: target at {version}, "
                f"expected {expect + 1}",
            )
            if _obs_metrics.STATE.enabled:
                _M_RECOVERIES.labels(kind="version-guard").inc()
            answer = {"version": version}
        self.mirror.apply(Delta.from_json(delta_json))
        self._oplog.append(delta_json)
        self._check(
            answer["version"] == self.mirror.version,
            f"update answered version {answer['version']}, "
            f"mirror at {self.mirror.version}",
        )

    def _op_revalidate(self) -> None:
        spec = self.spec
        compressed = (
            spec.compressed
            if spec.compressed is not None
            else self.rng.random() < 0.5
        )
        answer = self._attempt(
            "revalidate",
            lambda: self.target.revalidate("soak-main", compressed),
        )
        mode = answer.get("mode", "?")
        self.modes[mode] = self.modes.get(mode, 0) + 1
        self._check(
            answer["version"] == self.mirror.version,
            f"revalidate at version {answer['version']}, "
            f"mirror at {self.mirror.version}",
        )

    def _op_validate(self) -> None:
        spec = self.spec
        picks = [
            self.rng.randrange(len(self._docs)) for _ in range(max(spec.batch, 1))
        ]
        docs = [self._docs[index] for index in picks]
        verdicts = self._attempt(
            "validate", lambda: self.target.validate_batch(docs, "soak-main")
        )
        for pick, verdict in zip(picks, verdicts):
            self._check(
                verdict == self._doc_verdicts[pick],
                f"validate verdict {verdict!r} against oracle "
                f"{self._doc_verdicts[pick]!r} for document {pick}",
            )

    def _op_contains(self) -> None:
        # Ground truths by construction: the refactored schema is equivalent
        # to the original (Section 1 of the paper — the forward direction
        # needs type-union reasoning the search may not finish, so "unknown"
        # is acceptable there but "not-contained" never is), and every grown
        # chain schema contains its predecessor (intervals only widen, so
        # the identity embedding proves it).
        choices: List[Tuple[str, str, Tuple[str, ...]]] = [
            ("soak-main", "soak-refactored", ("contained", "unknown")),
            ("soak-refactored", "soak-main", ("contained",)),
        ]
        for index in range(len(self._chain) - 1):
            choices.append(
                (f"soak-chain{index}", f"soak-chain{index + 1}", ("contained",))
            )
        left, right, expected = choices[self.rng.randrange(len(choices))]
        verdict = self._attempt(
            "contains", lambda: self.target.contains(left, right)
        )
        self._check(
            verdict in expected,
            f"containment {left} ⊆ {right} answered {verdict!r}, "
            f"expected one of {expected}",
        )

    def _op_restart(self) -> None:
        """Checkpoint, kill and warm-restart the daemon, then re-verify.

        The recovered store must agree with the mirror on version and graph
        counts, and the first revalidation after the bounce must match the
        reference oracle's verdict — a restart is only "survived" when the
        daemon picks the stream back up with the exact same state.
        """
        self._attempt("checkpoint", self.target.checkpoint)
        self._attempt("restart", self.target.restart)
        version = self._attempt("status", self.target.graph_version)
        self._check(
            version == self.mirror.version,
            f"restarted daemon recovered version {version}, "
            f"mirror at {self.mirror.version}",
        )
        nodes, edges = self._attempt("status", self.target.graph_counts)
        self._check(
            (nodes, edges)
            == (self.mirror.graph.node_count, self.mirror.graph.edge_count),
            f"restarted daemon recovered counts {(nodes, edges)}, mirror "
            f"{(self.mirror.graph.node_count, self.mirror.graph.edge_count)}",
        )
        answer = self._attempt(
            "revalidate", lambda: self.target.revalidate("soak-main", False)
        )
        mode = answer.get("mode", "?")
        self.modes[mode] = self.modes.get(mode, 0) + 1
        self.restart_modes[mode] = self.restart_modes.get(mode, 0) + 1
        typing = maximal_typing_reference(self.mirror.graph, self._schema)
        untyped = [
            node for node in self.mirror.graph.nodes if not typing.types_of(node)
        ]
        oracle_verdict = "valid" if not untyped else "invalid"
        self._check(
            answer["verdict"] == oracle_verdict,
            f"first revalidate after restart answered {answer['verdict']!r}, "
            f"reference oracle says {oracle_verdict!r} at version "
            f"{self.mirror.version}",
        )

    # -- the periodic full oracle check ---------------------------------- #
    def _full_check(self) -> None:
        nodes, edges = self._attempt("status", self.target.graph_counts)
        self._check(
            (nodes, edges)
            == (self.mirror.graph.node_count, self.mirror.graph.edge_count),
            f"graph counts diverged: target {(nodes, edges)}, mirror "
            f"{(self.mirror.graph.node_count, self.mirror.graph.edge_count)}",
        )
        answer = self._attempt(
            "revalidate", lambda: self.target.revalidate("soak-main", False)
        )
        mode = answer.get("mode", "?")
        self.modes[mode] = self.modes.get(mode, 0) + 1
        typing = maximal_typing_reference(self.mirror.graph, self._schema)
        untyped = sorted(
            repr(node)
            for node in self.mirror.graph.nodes
            if not typing.types_of(node)
        )
        oracle_verdict = "valid" if not untyped else "invalid"
        self._check(
            answer["verdict"] == oracle_verdict,
            f"revalidate verdict {answer['verdict']!r} against reference "
            f"oracle {oracle_verdict!r} at version {self.mirror.version}",
        )
        self._check(
            sorted(answer["untyped_nodes"]) == untyped,
            f"untyped-node set diverged from the reference oracle at "
            f"version {self.mirror.version}",
        )

    # -- shrinking -------------------------------------------------------- #
    def _replay_fails(self, deltas: List[Dict]) -> bool:
        """Replay a delta subsequence in-process; True when the typing-parity
        invariant still fails at the end.  One replay of the budget."""
        self.shrink_replays += 1
        if _obs_metrics.STATE.enabled:
            _M_SHRINKS.inc()
        engine = ValidationEngine(backend="serial", cache_size=64)
        try:
            graph = load_graph(family_turtle(self.spec.size), name="replay")
            store = GraphStore(graph)
            for delta_json in deltas:
                try:
                    store.apply(Delta.from_json(delta_json))
                except ReproError:
                    return False  # subsequence is not applicable — not failing
            outcome = engine.revalidate(store, self._schema)
            typing = maximal_typing_reference(store.graph, self._schema)
            untyped = tuple(
                sorted(
                    (repr(n) for n in store.graph.nodes if not typing.types_of(n))
                )
            )
            return tuple(outcome.result.payload["untyped_nodes"]) != untyped
        except ReproError:
            return False
        finally:
            engine.close()

    def _shrink(self) -> List[Dict]:
        """Greedy chunk-removal minimization of the recorded update log.

        Fault injection is suspended for the replays (the failure must
        reproduce without the noise), and the budget is
        ``spec.max_shrink_replays`` replays, each a fresh in-process engine.
        """
        suspended = faults.uninstall()
        try:
            current = list(self._oplog)
            if not self._replay_fails(current):
                return []  # not reproducible in-process: report the full log
            chunk = max(len(current) // 2, 1)
            while chunk >= 1 and self.shrink_replays < self.spec.max_shrink_replays:
                index = 0
                while (
                    index < len(current)
                    and self.shrink_replays < self.spec.max_shrink_replays
                ):
                    candidate = current[:index] + current[index + chunk:]
                    if candidate and self._replay_fails(candidate):
                        current = candidate
                    else:
                        index += chunk
                chunk //= 2
            return current
        finally:
            if suspended is not None:
                faults.STATE.injector = suspended

    def _fail(self, message: str) -> None:
        shrunk = self._shrink()
        report = self._report(seconds=max(time.perf_counter() - self._t0, 1e-9))
        raise SoakFailure(
            f"soak invariant violated at step {sum(self.ops.values())}: "
            f"{message} (shrunk to {len(shrunk)} deltas in "
            f"{self.shrink_replays} replays)",
            report,
            shrunk,
        )

    # -- main loop -------------------------------------------------------- #
    def _pick_op(self) -> str:
        total = sum(self.spec.weights.values())
        roll = self.rng.random() * total
        acc = 0.0
        for name in sorted(self.spec.weights):
            acc += self.spec.weights[name]
            if roll < acc:
                return name
        return "update"

    def run(self) -> Dict[str, Any]:
        """Execute the spec; returns the report dict, raises on violation."""
        spec = self.spec
        injector_before = faults.stats()["fired"].copy()
        self._setup()
        self._t0 = time.perf_counter()
        handlers = {
            "update": self._op_update,
            "revalidate": self._op_revalidate,
            "validate": self._op_validate,
            "contains": self._op_contains,
        }
        if "restart" in self.ops:
            handlers["restart"] = self._op_restart
        step = 0
        while step < spec.steps:
            if (
                spec.duration is not None
                and time.perf_counter() - self._t0 >= spec.duration
            ):
                break
            op = self._pick_op()
            handlers[op]()
            self.ops[op] += 1
            if _obs_metrics.STATE.enabled:
                _M_STEPS.labels(op=op).inc()
            step += 1
            if spec.check_every and step % spec.check_every == 0:
                self._full_check()
        seconds = time.perf_counter() - self._t0
        return self._report(seconds, injected_before=injector_before)

    def _report(
        self,
        seconds: float,
        injected_before: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Any]:
        fired = faults.stats()["fired"]
        if injected_before:
            fired = {
                point: count - injected_before.get(point, 0)
                for point, count in fired.items()
                if count - injected_before.get(point, 0) > 0
            }
        client = getattr(self.target, "client", None)
        steps = sum(self.ops.values())
        report = {
            "invariant_checks_passed": self.checks_passed,
            "modes": dict(sorted(self.modes.items())),
            "ops": dict(sorted(self.ops.items())),
            "ops_per_second": round(steps / seconds, 2) if seconds else 0.0,
            "seconds": round(seconds, 6),
            "spec": self.spec.to_json(),
            "steps": steps,
            "faults": {
                "injected": sum(fired.values()),
                "by_point": dict(sorted(fired.items())),
                "client_retries": getattr(client, "retried_requests", 0)
                + getattr(self.target, "_retired_retries", 0),
                "reconnects": getattr(client, "reconnects", 0)
                + getattr(self.target, "_retired_reconnects", 0),
                "op_retries": self.op_retries,
                "unrecovered": self.unrecovered,
            },
        }
        if "restart" in self.ops:
            report["restarts"] = {
                "count": self.ops["restart"],
                "modes": dict(sorted(self.restart_modes.items())),
            }
        return report


def run_soak(spec: SoakSpec, target) -> Dict[str, Any]:
    """Convenience wrapper: build a runner, run it, close the target."""
    runner = SoakRunner(spec, target)
    try:
        return runner.run()
    finally:
        try:
            target.close()
        except Exception:  # noqa: BLE001 — closing best-effort after a soak
            pass
