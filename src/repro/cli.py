"""Command-line interface: validate RDF data and check schema containment.

Usage examples (after ``pip install -e .``)::

    # Validate an RDF document against a schema
    shex-containment validate --schema schema.shex --data data.ttl

    # Check containment of two schemas
    shex-containment contains --left old.shex --right new.shex

    # Classify a schema in the paper's hierarchy
    shex-containment classify --schema schema.shex

    # Validate a whole manifest of (data, schema) jobs in parallel
    shex-containment batch --manifest jobs.txt --backend process --jobs 4

    # Validate, apply a JSON edge delta, and revalidate incrementally
    shex-containment validate --schema schema.shex --data data.ttl --delta edit.json

    # Route the same commands through a running shex-serve daemon, so schema
    # compilation and the result cache persist across invocations
    shex-containment validate --connect /tmp/shex.sock --schema s.shex --data d.ttl
    shex-containment batch --connect /tmp/shex.sock --manifest jobs.txt

Schemas use the rule syntax of :mod:`repro.schema.parser`; data files use the
light Turtle dialect of :mod:`repro.rdf.parser` (or N-Triples with
``--ntriples``; files named ``*.nt`` are detected automatically).  Missing or
malformed input files produce a one-line error and exit status 2 instead of a
traceback.  Output a reader stops reading (``| head -1``) is dropped quietly:
the exit status stays the verdict's.

Output contract of ``batch`` (documented in ``docs/protocol.md``): stdout
carries exactly one machine-parseable line per job, in submission order;
the human summary (job count, cache hits, wall time) goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.engine.backends import BACKENDS
from repro.errors import ReproError
from repro.rdf.convert import load_graph
from repro.schema.parser import parse_schema
from repro.schema.validation import validate

# Subcommands other than ``validate`` import their modules (and ``json``) in
# their handlers, so a one-shot ``validate`` never loads containment,
# manifests or serving.


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_schema(path: str):
    return parse_schema(_read(path), name=path)


def _load_graph(path: str, ntriples: bool):
    return load_graph(_read(path), ntriples=ntriples or path.endswith(".nt"), name=path)


def _load_delta(path: str):
    """Parse a ``--delta`` file: JSON ``{"add": [...], "remove": [...]}``.

    Entries are ``[source, label, target]`` triples over the *converted*
    graph's node identifiers and labels (IRIs, ``literal:...`` forms,
    shortened predicate names — what ``--show-typing`` prints).
    """
    import json

    from repro.graphs.store import Delta

    try:
        payload = json.loads(_read(path))
    except ValueError as exc:
        raise ReproError(f"--delta file {path}: {exc}") from exc
    return Delta.from_json(payload)


def _cmd_validate_delta(args: argparse.Namespace) -> int:
    """``validate --delta``: validate, apply the edit, revalidate incrementally.

    The base document is validated once (full typing), the delta is applied
    through a :class:`repro.graphs.store.GraphStore`, and the new version is
    revalidated from the delta's affected region only — the printed ``mode``
    says which path answered.  The exit status reflects the *post-delta*
    verdict.
    """
    from repro.engine.validation import ValidationEngine
    from repro.graphs.store import GraphStore

    schema = _load_schema(args.schema)
    delta = _load_delta(args.delta)
    store = GraphStore(_load_graph(args.data, args.ntriples))
    engine = ValidationEngine()
    before = engine.revalidate(store, schema)
    print(
        f"base     v{before.version}: {before.result.verdict.upper()} "
        f"({len(before.result.payload['untyped_nodes'])} untyped)"
    )
    store.apply(delta)
    after = engine.revalidate(store, schema)
    print(
        f"delta    v{after.version}: {after.result.verdict.upper()} "
        f"[{after.mode}"
        + (
            f": {after.frontier} touched, {after.affected} nodes retyped"
            if after.mode == "incremental"
            else ""
        )
        + "]"
    )
    if after.result.verdict != "valid":
        for node in after.result.payload["untyped_nodes"]:
            print(f"  untyped: {node}")
    if args.show_typing:
        for node, types in after.result.payload["typing"]:
            print(f"  {node}: {{{', '.join(types)}}}")
    return 0 if after.result.verdict == "valid" else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.connect:
        return _cmd_validate_connected(args)
    if args.delta:
        return _cmd_validate_delta(args)
    schema = _load_schema(args.schema)
    graph = _load_graph(args.data, args.ntriples)
    report = validate(graph, schema)
    if report.satisfied:
        print(f"VALID: every node of {args.data} is typed by {args.schema}")
        if args.show_typing:
            print(report.typing)
        return 0
    print(f"INVALID: {len(report.untyped_nodes)} node(s) have no type:")
    for node in report.untyped_nodes:
        print(f"  {node}")
    return 1


def _cmd_validate_connected(args: argparse.Namespace) -> int:
    """``validate --connect``: ship file contents to a running daemon.

    Texts are inlined so the daemon never needs to share a filesystem with
    the caller; repeated documents are answered from the daemon's caches.
    """
    from repro.serve.client import DaemonClient

    data_format = "ntriples" if (args.ntriples or args.data.endswith(".nt")) else "turtle"
    with DaemonClient.connect(args.connect, timeout=args.timeout) as client:
        if args.delta:
            return _cmd_validate_delta_connected(args, client, data_format)
        answer = client.validate(
            {"text": _read(args.schema), "name": args.schema},
            data_text=_read(args.data),
            data_format=data_format,
            include_typing=args.show_typing,
        )
    cached = " (cached)" if answer["cached"] else ""
    if answer["verdict"] == "valid":
        print(f"VALID: every node of {args.data} is typed by {args.schema}{cached}")
        if args.show_typing:
            for node, types in answer.get("typing", []):
                print(f"  {node}: {{{', '.join(types)}}}")
        return 0
    print(f"INVALID: {len(answer['untyped_nodes'])} node(s) have no type:{cached}")
    for node in answer["untyped_nodes"]:
        print(f"  {node}")
    return 1


def _cmd_validate_delta_connected(args, client, data_format: str) -> int:
    """``validate --delta --connect``: the same flow through a daemon's graph store.

    The graph is registered under the data path, revalidated, updated with the
    delta, and revalidated again — the daemon keeps the typing between the two
    calls, so the second one is incremental.
    """
    delta = _load_delta(args.delta)
    schema_ref = {"text": _read(args.schema), "name": args.schema}
    registered = client.update_graph(
        args.data, data_text=_read(args.data), data_format=data_format
    )
    before = client.revalidate(registered["name"], schema_ref)
    print(
        f"base     v{before['version']}: {before['verdict'].upper()} "
        f"({len(before['untyped_nodes'])} untyped) [{before['mode']}]"
    )
    client.update_graph(registered["name"], delta=delta.to_json())
    after = client.revalidate(registered["name"], schema_ref)
    print(f"delta    v{after['version']}: {after['verdict'].upper()} [{after['mode']}]")
    for node in after["untyped_nodes"]:
        print(f"  untyped: {node}")
    return 0 if after["verdict"] == "valid" else 1


def _cmd_contains(args: argparse.Namespace) -> int:
    from repro.containment.api import Verdict, contains, equivalent

    left = _load_schema(args.left)
    right = _load_schema(args.right)
    checker = equivalent if args.equivalence else contains
    result = checker(left, right, max_nodes=args.max_nodes, samples=args.samples)
    relation = "≡" if args.equivalence else "⊆"
    print(f"{args.left} {relation} {args.right}: {result.verdict.value}")
    print(f"  method: {result.method}")
    print(f"  classes: {result.left_class} / {result.right_class}")
    if result.counterexample is not None and args.show_counterexample:
        print("  counter-example:")
        for line in str(result.counterexample).splitlines():
            print(f"    {line}")
    if result.verdict is Verdict.CONTAINED:
        return 0
    if result.verdict is Verdict.NOT_CONTAINED:
        return 1
    return 2


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.schema.classes import classification_report

    schema = _load_schema(args.schema)
    report = classification_report(schema)
    print(f"classification of {args.schema}:")
    for class_name, member in report.items():
        print(f"  {class_name:<10} {'yes' if member else 'no'}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.engine.manifest import load_jobs, load_manifest
    from repro.engine.validation import ValidationEngine

    entries = load_manifest(args.manifest)
    if not entries:
        print(f"manifest {args.manifest} declares no jobs", file=sys.stderr)
        return 0
    if args.connect:
        if args.metrics_json:
            print(
                "shex-containment: warning: --metrics-json is ignored with "
                "--connect (use 'shex-serve metrics' against the daemon)",
                file=sys.stderr,
            )
        return _cmd_batch_connected(args, entries)
    jobs = load_jobs(entries)
    with obs.start_trace("cli.batch", manifest=args.manifest, jobs=len(jobs)) as root:
        with ValidationEngine(
            backend=args.backend,
            max_workers=args.jobs,
            cache_size=args.cache_size,
        ) as engine:
            report = engine.run_batch(jobs)
    if args.metrics_json:
        payload = {
            "manifest": args.manifest,
            "jobs": len(jobs),
            "seconds": round(report.seconds, 6),
            "spans": root.to_dict(),
            "metrics": obs.get_registry().snapshot(),
        }
        import json

        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    width = max(len(result.label) for result in report.results)
    for result in report.results:
        marker = "cache" if result.cached else f"{result.seconds * 1000:.1f}ms"
        print(f"{result.label:<{width}}  {result.verdict.upper():<8} [{marker}]")
        if args.show_untyped and result.verdict != "valid":
            for node in result.payload["untyped_nodes"]:
                print(f"{'':<{width}}    untyped: {node}")
    # Per-job lines above are the machine-parseable stdout contract; the
    # human summary goes to stderr (see docs/protocol.md).
    print(report.summary(), file=sys.stderr)
    return 0 if report.all_ok else 1


def _cmd_batch_connected(args: argparse.Namespace, entries) -> int:
    """``batch --connect``: run the manifest through a running daemon."""
    from repro.serve.client import DaemonClient, batch_jobs_from_manifest

    # Engine tuning happens daemon-side: these flags only apply to local runs.
    if args.backend != "serial" or args.jobs is not None or args.cache_size != 1024:
        print(
            "shex-containment: warning: --backend/--jobs/--cache-size are ignored "
            "with --connect (the daemon's configuration applies)",
            file=sys.stderr,
        )
    jobs = batch_jobs_from_manifest(entries)
    with DaemonClient.connect(args.connect, timeout=args.timeout) as client:
        summary = client.batch_validate(jobs)
    results = summary["results"]
    width = max(len(result["label"]) for result in results)
    all_ok = True
    for result in results:
        marker = "cache" if result["cached"] else f"{result['seconds'] * 1000:.1f}ms"
        print(f"{result['label']:<{width}}  {result['verdict'].upper():<8} [{marker}]")
        if result["verdict"] != "valid":
            all_ok = False
            if args.show_untyped:
                for node in result["untyped_nodes"]:
                    print(f"{'':<{width}}    untyped: {node}")
    cache = summary["cache"]
    print(
        f"{summary['jobs']} job(s) in {summary['seconds']:.3f}s via daemon "
        f"{args.connect!r}: {summary['cached']} from cache "
        f"(hits={cache['hits']} misses={cache['misses']} "
        f"size={cache['size']}/{cache['max_size']})",
        file=sys.stderr,
    )
    return 0 if all_ok else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    """``soak``: a fault-injected randomized run with live oracle checks.

    By default the command self-hosts a daemon in a thread on a private Unix
    socket and soaks it under the requested fault schedule; ``--connect``
    targets a daemon that is already running (inject faults there with the
    daemon-side ``REPRO_FAULTS`` environment variable), and ``--in-process``
    drives the engines directly with no serve stack at all.
    """
    import contextlib
    import tempfile

    from repro import faults
    from repro.workloads.soak import (
        DaemonTarget,
        InProcessTarget,
        SoakFailure,
        SoakSpec,
        run_soak,
    )

    fault = None if args.fault in (None, "", "none") else args.fault
    spec_options = {}
    if args.restart_weight:
        from repro.workloads.soak import _default_weights

        spec_options["weights"] = dict(
            _default_weights(), restart=args.restart_weight
        )
    spec = SoakSpec(
        steps=args.steps,
        duration=args.duration,
        seed=args.seed,
        size=args.size,
        churn=args.churn,
        hotspot=args.hotspot,
        batch=args.batch,
        check_every=args.check_every,
        containment_chain=args.chain,
        fault=fault,
        max_shrink_replays=args.max_shrink_replays,
        **spec_options,
    )
    if args.in_process and args.connect:
        print("shex-containment: error: --in-process and --connect are exclusive",
              file=sys.stderr)
        return 2
    if args.restart_weight and (args.in_process or args.connect):
        print(
            "shex-containment: error: --restart-weight needs the self-hosted "
            "daemon (no --in-process / --connect)",
            file=sys.stderr,
        )
        return 2
    if args.restart_weight and not args.data_dir:
        print(
            "shex-containment: error: --restart-weight requires --data-dir "
            "(restarts only survive with a durable store)",
            file=sys.stderr,
        )
        return 2

    handle = None
    tempdir: Optional[tempfile.TemporaryDirectory] = None
    injector_installed = False
    try:
        if args.in_process:
            target = InProcessTarget(backend=args.backend)
        else:
            from repro.serve.client import DaemonClient

            if args.connect:
                address = args.connect
                if fault:
                    print(
                        "soak: note: --connect targets a separate daemon; set "
                        "REPRO_FAULTS there to inject server-side faults",
                        file=sys.stderr,
                    )
            else:
                from repro.serve.daemon import start_in_thread

                tempdir = tempfile.TemporaryDirectory(prefix="shex-soak-")
                address = os.path.join(tempdir.name, "soak.sock")
                daemon_options = dict(
                    backend=args.backend,
                    max_workers=2,
                    request_timeout=args.timeout,
                    data_dir=args.data_dir,
                )
                handle = start_in_thread(socket_path=address, **daemon_options)
            client = DaemonClient.connect(
                address, timeout=args.timeout, retries=4, backoff=0.05
            )
            restarter = None
            if args.restart_weight:

                def restarter():
                    # Clean stop cuts a final checkpoint; the fresh daemon
                    # then recovers the store from the same --data-dir.
                    # ``handle`` is rebound so the outer cleanup always
                    # stops the daemon that is actually running.
                    nonlocal handle
                    handle.stop()
                    handle = start_in_thread(socket_path=address, **daemon_options)
                    return DaemonClient.connect(
                        address, timeout=args.timeout, retries=4, backoff=0.05
                    )

            target = DaemonTarget(client, "soak", restarter=restarter)
        if fault:
            faults.install(fault, seed=args.seed)
            injector_installed = True
        try:
            report = run_soak(spec, target)
        except SoakFailure as exc:
            print(f"SOAK FAILED: {exc}", file=sys.stderr)
            if exc.shrunk:
                import json

                print("minimal failing update sequence:", file=sys.stderr)
                for delta in exc.shrunk:
                    print(f"  {json.dumps(delta, sort_keys=True)}", file=sys.stderr)
            if args.output:
                _write_soak_report(args.output, exc.report)
            return 1
    finally:
        if injector_installed:
            faults.uninstall()
        if handle is not None:
            with contextlib.suppress(Exception):
                handle.stop()
        if tempdir is not None:
            tempdir.cleanup()

    if args.output:
        _write_soak_report(args.output, report)
    tallies = report["faults"]
    print(
        f"soak OK: {report['steps']} steps in {report['seconds']:.2f}s "
        f"({report['ops_per_second']:.1f} ops/s), "
        f"{report['invariant_checks_passed']} invariant checks passed, "
        f"{tallies['injected']} faults injected "
        f"({tallies['reconnects']} reconnects, "
        f"{tallies['client_retries']} client retries, "
        f"{tallies['op_retries']} op retries), "
        f"{tallies['unrecovered']} unrecovered"
    )
    restarts = report.get("restarts")
    if restarts:
        modes = ", ".join(
            f"{mode}={count}" for mode, count in sorted(restarts["modes"].items())
        )
        print(
            f"  restarts: {restarts['count']} survived "
            f"(first revalidate modes: {modes or 'none'})"
        )
    return 0 if tallies["unrecovered"] == 0 else 1


def _write_soak_report(path: str, report) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"soak: report written to {path}", file=sys.stderr)


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive worker count, got {value}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shex-containment",
        description="Validation and containment for shape expression schemas (PODS 2019).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate_parser = subparsers.add_parser("validate", help="validate RDF data against a schema")
    validate_parser.add_argument("--schema", required=True, help="schema rule file")
    validate_parser.add_argument("--data", required=True, help="RDF data file")
    validate_parser.add_argument("--ntriples", action="store_true", help="parse data as N-Triples")
    validate_parser.add_argument("--show-typing", action="store_true", help="print the maximal typing")
    validate_parser.add_argument(
        "--delta", metavar="FILE", default=None,
        help="JSON {\"add\": [[s,a,t],...], \"remove\": [...]} edit: validate, "
        "apply it, and revalidate incrementally",
    )
    validate_parser.add_argument(
        "--connect", metavar="ADDR", default=None,
        help="route through a shex-serve daemon (socket path or HOST:PORT)",
    )
    validate_parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="socket timeout in seconds for --connect",
    )
    validate_parser.set_defaults(handler=_cmd_validate)

    contains_parser = subparsers.add_parser("contains", help="check schema containment")
    contains_parser.add_argument("--left", required=True, help="candidate sub-schema")
    contains_parser.add_argument("--right", required=True, help="candidate super-schema")
    contains_parser.add_argument("--equivalence", action="store_true", help="check both directions")
    contains_parser.add_argument("--max-nodes", type=int, default=40, help="counter-example size budget")
    contains_parser.add_argument("--samples", type=int, default=30, help="random candidates to try")
    contains_parser.add_argument(
        "--show-counterexample", action="store_true", help="print the counter-example graph"
    )
    contains_parser.set_defaults(handler=_cmd_contains)

    classify_parser = subparsers.add_parser("classify", help="classify a schema in the paper's hierarchy")
    classify_parser.add_argument("--schema", required=True, help="schema rule file")
    classify_parser.set_defaults(handler=_cmd_classify)

    batch_parser = subparsers.add_parser(
        "batch", help="validate a manifest of (data, schema) jobs through the engine"
    )
    batch_parser.add_argument(
        "--manifest", required=True,
        help="manifest file: 'data schema' per line, or JSON with a 'jobs' list",
    )
    batch_parser.add_argument(
        "--backend", choices=BACKENDS, default="serial", help="executor backend"
    )
    batch_parser.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker count for thread/process backends",
    )
    batch_parser.add_argument(
        "--cache-size", type=int, default=1024, help="LRU result-cache capacity (0 disables)"
    )
    batch_parser.add_argument(
        "--show-untyped", action="store_true", help="list untyped nodes of invalid graphs"
    )
    batch_parser.add_argument(
        "--metrics-json", metavar="FILE", default=None,
        help="write the run's metrics snapshot and timed span tree to FILE",
    )
    batch_parser.add_argument(
        "--connect", metavar="ADDR", default=None,
        help="route through a shex-serve daemon (socket path or HOST:PORT)",
    )
    batch_parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="socket timeout in seconds for --connect",
    )
    batch_parser.set_defaults(handler=_cmd_batch)

    soak_parser = subparsers.add_parser(
        "soak",
        help="randomized fault-injected soak run with live oracle checks",
    )
    soak_parser.add_argument("--steps", type=int, default=250, help="operations to run")
    soak_parser.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds, whichever comes first",
    )
    soak_parser.add_argument("--seed", type=int, default=1234, help="RNG seed for the run")
    soak_parser.add_argument(
        "--fault", default="mixed", metavar="SCHEDULE",
        help="fault schedule name or point=rate spec ('none' disables injection)",
    )
    soak_parser.add_argument(
        "--size", type=int, default=4, help="disjoint bug-tracker copies in the graph"
    )
    soak_parser.add_argument(
        "--churn", type=float, default=0.4, help="removal fraction of update deltas"
    )
    soak_parser.add_argument(
        "--hotspot", type=float, default=0.25,
        help="probability an update hits the hot copy",
    )
    soak_parser.add_argument(
        "--batch", type=int, default=3, help="documents per validate operation"
    )
    soak_parser.add_argument(
        "--check-every", type=int, default=5,
        help="steps between full oracle checks (0 disables them)",
    )
    soak_parser.add_argument(
        "--chain", type=int, default=3, help="length of the grown containment chain"
    )
    soak_parser.add_argument(
        "--max-shrink-replays", type=int, default=160,
        help="replay budget when shrinking a failing sequence",
    )
    soak_parser.add_argument(
        "--connect", metavar="ADDR", default=None,
        help="soak a running shex-serve daemon instead of self-hosting one",
    )
    soak_parser.add_argument(
        "--in-process", action="store_true",
        help="drive the engines directly, no daemon at all",
    )
    soak_parser.add_argument(
        "--backend", choices=BACKENDS, default="thread",
        help="executor backend of the self-hosted daemon / in-process engines",
    )
    soak_parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-request timeout in seconds",
    )
    soak_parser.add_argument(
        "--output", metavar="FILE", default="BENCH_soak.json",
        help="write the JSON report here ('' disables)",
    )
    soak_parser.add_argument(
        "--data-dir", metavar="DIR", default=None,
        help="persist the self-hosted daemon's stores to DIR (snapshot + WAL)",
    )
    soak_parser.add_argument(
        "--restart-weight", type=float, default=0.0, metavar="W",
        help="weight of the checkpoint/kill/warm-restart op (0 disables; "
        "requires --data-dir on the self-hosted daemon)",
    )
    soak_parser.set_defaults(handler=_cmd_soak)
    return parser


class _ClosableStdout:
    """Stands in for ``sys.stdout`` while a command runs.

    When the reader closes the pipe early (output piped into ``head``), the
    write raises :class:`BrokenPipeError`.  The guard then points the stream's
    descriptor at ``os.devnull`` and drops the rest of the output, so the
    command still runs to its verdict and exits with its status, and the
    interpreter's exit flush has nothing left to raise.
    """

    def __init__(self, stream):
        self._stream = stream

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._drop()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._drop()

    def _drop(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)

    def __getattr__(self, name: str):
        return getattr(self._stream, name)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit status."""
    return _execute(build_parser().parse_args(argv))


def _execute(args: argparse.Namespace) -> int:
    stdout, sys.stdout = sys.stdout, _ClosableStdout(sys.stdout)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except OSError as exc:
        target = getattr(exc, "filename", None)
        detail = f"{target}: {exc.strerror}" if target and exc.strerror else str(exc)
        print(f"shex-containment: error: {detail}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"shex-containment: error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.stdout = stdout


def run() -> None:
    """The ``shex-containment`` script and ``python -m repro.cli``: exit with
    :func:`main`'s status.

    A one-shot local ``validate`` owns no pool, file or exit hook, so once
    its output is flushed the process ends at once (``os._exit``) instead of
    tearing down every module it loaded.  Other commands exit normally.
    """
    args = build_parser().parse_args()
    status = _execute(args)
    if args.handler is _cmd_validate and not (args.connect or args.delta):
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:  # a closed pipe: the output was dropped already
                pass
        os._exit(status)
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    run()
