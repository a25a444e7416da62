"""The ``shex-serve`` command: run and control the validation daemon.

Usage examples (after ``pip install -e .``)::

    # Run a daemon in the foreground on a Unix socket
    shex-serve start --socket /tmp/shex.sock --backend thread --jobs 4

    # ... or on TCP
    shex-serve start --tcp 127.0.0.1:9753

    # Inspect and control it from another terminal
    shex-serve status --connect /tmp/shex.sock
    shex-serve flush  --connect /tmp/shex.sock
    shex-serve stop   --connect /tmp/shex.sock

    # Keep versioned graph stores on the daemon and revalidate incrementally
    shex-serve update     --connect /tmp/shex.sock --name bugs --data bugs.ttl
    shex-serve update     --connect /tmp/shex.sock --name bugs --delta edit.json
    shex-serve revalidate --connect /tmp/shex.sock --name bugs --schema s.shex
    shex-serve revalidate --connect /tmp/shex.sock --all --schema s.shex

    # Durable mode: stores survive restarts (snapshot + WAL under DIR)
    shex-serve start --socket /tmp/shex.sock --data-dir /var/lib/shex
    shex-serve checkpoint --connect /tmp/shex.sock --name bugs

``start`` blocks until ``stop`` (or Ctrl-C); run it under ``&``, tmux, or a
service manager for background operation.  Requests are served through the
persistent engines of :mod:`repro.serve.daemon`, so schema compilation and
the result caches survive across all clients — see ``docs/protocol.md`` for
the wire protocol and ``shex-containment validate/batch --connect`` for the
matching client mode of the main CLI.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.engine.backends import BACKENDS
from repro.errors import ReproError
from repro.obs.logs import LEVELS
from repro.serve.daemon import ValidationDaemon
from repro.serve.protocol import split_address

if TYPE_CHECKING:
    from repro.serve.client import DaemonClient


def _daemon_from_args(args: argparse.Namespace) -> ValidationDaemon:
    if bool(args.socket) == bool(args.tcp):
        raise ReproError("pass exactly one of --socket PATH or --tcp HOST:PORT")
    if args.socket:
        endpoint = {"socket_path": args.socket}
    else:
        socket_path, tcp = split_address(args.tcp)
        if tcp is None:
            raise ReproError(f"--tcp expects HOST:PORT, got {args.tcp!r}")
        endpoint = {"host": tcp[0], "port": tcp[1]}
    return ValidationDaemon(
        backend=args.backend,
        max_workers=args.jobs,
        cache_size=args.cache_size,
        cache_dir=args.cache_dir,
        cache_max_mb=args.cache_max_mb,
        cache_ttl=args.cache_ttl,
        slow_ms=args.slow_ms,
        log_level=args.log_level,
        log_json=args.log_json,
        data_dir=args.data_dir,
        fsync=args.fsync,
        checkpoint_interval=args.checkpoint_interval,
        **endpoint,
    )


def _cmd_start(args: argparse.Namespace) -> int:
    daemon = _daemon_from_args(args)

    def announce() -> None:
        print(f"shex-serve: listening on {daemon.address}", file=sys.stderr)

    try:
        asyncio.run(daemon.serve(on_ready=announce))
    except KeyboardInterrupt:
        print("shex-serve: interrupted, shutting down", file=sys.stderr)
    return 0


def _client(args: argparse.Namespace) -> DaemonClient:
    # Imported here: ``start`` runs the daemon and never needs the client.
    from repro.serve.client import DaemonClient

    return DaemonClient.connect(args.connect, timeout=args.timeout)


def _cmd_status(args: argparse.Namespace) -> int:
    with _client(args) as client:
        status = client.status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"daemon {status['address']} (pid {status['pid']}, v{status['version']})")
    print(f"  backend: {status['backend']}, uptime: {status['uptime_seconds']}s")
    print(f"  connections: {status['connections']}, requests: {status['requests']}")
    print(f"  schemas loaded: {len(status['schemas'])}")
    for kind in ("validation_cache", "containment_cache"):
        cache = status[kind]
        print(
            f"  {kind.replace('_', ' ')}: hits={cache['hits']} misses={cache['misses']} "
            f"size={cache['size']}/{cache['max_size']} hit-rate={cache['hit_rate']:.1%}"
        )
    graphs = status.get("graphs", {})
    if graphs:
        print(f"  graphs registered: {len(graphs)}")
    for name, entry in graphs.items():
        line = (
            f"    {name!r}: v{entry['version']}, {entry['nodes']} nodes, "
            f"{entry['edges']} edges"
        )
        print(line)
        persist = entry.get("persist")
        if persist:
            checkpointed = persist.get("last_checkpoint_at")
            stamp = (
                time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(checkpointed))
                if checkpointed
                else "never"
            )
            print(
                f"      durable: generation {persist['generation']} "
                f"(format {persist['format']}, fsync={persist['fsync']}), "
                f"WAL {persist['wal_records']} record(s) / {persist['wal_bytes']}B, "
                f"last checkpoint {stamp}"
            )
    return 0


def _cmd_stop(args: argparse.Namespace) -> int:
    with _client(args) as client:
        client.shutdown()
    print("shex-serve: daemon acknowledged shutdown", file=sys.stderr)
    return 0


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_update(args: argparse.Namespace) -> int:
    """``shex-serve update``: register a graph or apply a ``--delta`` file."""
    if bool(args.data) == bool(args.delta):
        raise ReproError("pass exactly one of --data FILE or --delta FILE")
    with _client(args) as client:
        if args.data:
            data_format = "ntriples" if args.data.endswith(".nt") else "turtle"
            result = client.update_graph(
                args.name, data_text=_read_file(args.data), data_format=data_format
            )
        else:
            try:
                delta = json.loads(_read_file(args.delta))
            except json.JSONDecodeError as exc:
                raise ReproError(f"--delta file {args.delta}: {exc}") from exc
            result = client.update_graph(args.name, delta=delta)
    print(
        f"graph {result['name']!r} at version {result['version']}: "
        f"{result['nodes']} nodes, {result['edges']} edges"
    )
    return 0


def _cmd_revalidate(args: argparse.Namespace) -> int:
    """``shex-serve revalidate``: validate graph stores (one, many, or all).

    One ``--name`` keeps the original single-graph output; several ``--name``
    flags or ``--all`` run one batched daemon op sharing the schema's warm
    signature memo across graphs, printing one line per graph.  Unknown
    graphs are reported per line without aborting the batch.
    """
    names = args.name or []
    if bool(names) == args.all:
        raise ReproError("pass --name (repeatable) or --all, not both")
    schema_ref = {"text": _read_file(args.schema), "name": args.schema}
    with _client(args) as client:
        if len(names) == 1 and not args.all:
            answer = client.revalidate(
                names[0], schema_ref, compressed=args.compressed
            )
            verdict = answer["verdict"].upper()
            print(
                f"{verdict}: graph {names[0]!r} v{answer['version']} against "
                f"{args.schema} [{answer['mode']}]"
            )
            for node in answer["untyped_nodes"]:
                print(f"  untyped: {node}")
            return 0 if answer["verdict"] == "valid" else 1
        summary = client.revalidate_many(
            schema_ref,
            graphs=names or None,
            all_graphs=args.all,
            compressed=args.compressed,
        )
    for entry in summary["results"]:
        if "error" in entry:
            print(f"UNKNOWN: graph {entry['graph']!r} ({entry['error']['message']})")
            continue
        print(
            f"{entry['verdict'].upper()}: graph {entry['graph']!r} "
            f"v{entry['version']} [{entry['mode']}]"
        )
        for node in entry["untyped_nodes"]:
            print(f"  untyped: {node}")
    print(
        f"shex-serve: {summary['graphs']} graph(s): {summary['valid']} valid, "
        f"{summary['invalid']} invalid, {summary['unknown']} unknown",
        file=sys.stderr,
    )
    return 0 if summary["invalid"] == 0 and summary["unknown"] == 0 else 1


def _render_metrics(snapshot: Dict[str, Any]) -> str:
    """The human one-screen rendering of a ``metrics`` snapshot."""
    lines = [
        f"daemon v{snapshot['version']} — metrics "
        f"{'enabled' if snapshot.get('enabled', True) else 'DISABLED'}, "
        f"uptime {snapshot['uptime_seconds']}s, "
        f"{snapshot['connections']} connection(s)"
    ]
    requests = snapshot.get("requests", {})
    if requests:
        rendered = ", ".join(f"{op}={count}" for op, count in sorted(requests.items()))
        lines.append(f"  requests: {rendered}")
    solver = snapshot.get("solver", {})
    if solver:
        lines.append(
            f"  solver: {solver.get('sat_checks', 0)} sat checks, "
            f"{solver.get('milp_calls', 0)} milp, "
            f"{solver.get('batch_calls', 0)} batched "
            f"({solver.get('batch_blocks', 0)} blocks)"
        )
    fixpoint = snapshot.get("fixpoint", {})
    if fixpoint:
        runs = fixpoint.get("runs", {})
        by_mode = ", ".join(f"{mode}={int(count)}" for mode, count in sorted(runs.items()))
        lines.append(
            f"  fixpoint: runs [{by_mode or 'none'}], "
            f"{int(fixpoint.get('checks', 0))} checks, "
            f"{int(fixpoint.get('row_hits', 0))} row hits, "
            f"signature hit-rate {fixpoint.get('signature_hit_rate', 0.0):.1%}"
        )
    persist = snapshot.get("persist", {})
    if persist and any(persist.values()):
        lines.append(
            f"  persist: {persist.get('wal_appends', 0)} WAL appends "
            f"({persist.get('wal_bytes', 0)}B), "
            f"{persist.get('checkpoints', 0)} checkpoints, "
            f"{persist.get('replayed_records', 0)} replayed, "
            f"{persist.get('truncated_tails', 0)} truncated tail(s)"
        )
    for label, cache in sorted(snapshot.get("caches", {}).items()):
        line = (
            f"  cache {label}: hits={cache['hits']} misses={cache['misses']} "
            f"evictions={cache['evictions']} size={cache['size']}/{cache['max_size']} "
            f"hit-rate={cache['hit_rate']:.1%}"
        )
        if "disk_bytes" in cache:
            line += f" disk={cache['disk_bytes']}B"
        lines.append(line)
    for name, entry in sorted(snapshot.get("graphs", {}).items()):
        lines.append(f"  graph {name!r}: v{entry['version']}, {entry['nodes']} nodes")
    return "\n".join(lines)


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``shex-serve metrics``: snapshot (or watch) a daemon's metrics.

    Default output is a one-screen human summary; ``--json`` prints the full
    structured snapshot and ``--prometheus`` the text exposition (pipe it to
    a file a node_exporter textfile collector scrapes).  ``--watch N``
    refreshes the chosen rendering every N seconds until interrupted.
    """
    if args.json and args.prometheus:
        raise ReproError("pass at most one of --json or --prometheus")

    def render(client: DaemonClient) -> str:
        snapshot = client.metrics(prometheus=args.prometheus)
        if args.prometheus:
            return snapshot["prometheus"].rstrip("\n")
        if args.json:
            return json.dumps(snapshot, indent=2, sort_keys=True)
        return _render_metrics(snapshot)

    with _client(args) as client:
        if args.watch is None:
            print(render(client))
            return 0
        try:
            while True:
                output = render(client)
                # Clear the screen between refreshes so the snapshot reads
                # like a dashboard rather than a scrolling log.
                sys.stdout.write("\x1b[2J\x1b[H" + output + "\n")
                sys.stdout.flush()
                time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """``shex-serve checkpoint``: snapshot durable graph stores now.

    Folds each store's WAL tail into a fresh snapshot generation.  With
    ``--name`` only that graph is checkpointed; otherwise every durable
    store on the daemon is.  Requires a daemon started with ``--data-dir``.
    """
    with _client(args) as client:
        answer = client.checkpoint(args.name)
    for name, entry in sorted(answer["results"].items()):
        print(
            f"checkpointed {name!r}: generation {entry['generation']} "
            f"at v{entry['version']}, folded {entry['wal_records_folded']} "
            f"WAL record(s) in {entry['seconds'] * 1000:.1f} ms"
        )
    return 0


def _cmd_flush(args: argparse.Namespace) -> int:
    with _client(args) as client:
        flushed = client.flush_cache()["flushed"]
    print(
        f"flushed {flushed['validation']} validation, {flushed['containment']} "
        f"containment, {flushed['parsed']} parsed entries"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``shex-serve`` argument parser (start / status / stop / flush)."""
    parser = argparse.ArgumentParser(
        prog="shex-serve",
        description="Long-lived validation daemon for shape expression schemas.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    start_parser = subparsers.add_parser("start", help="run a daemon (foreground)")
    start_parser.add_argument("--socket", help="Unix socket path to listen on")
    start_parser.add_argument("--tcp", help="HOST:PORT to listen on")
    start_parser.add_argument(
        "--backend", choices=BACKENDS, default="thread", help="executor backend"
    )
    start_parser.add_argument(
        "--jobs", type=int, default=None, help="worker count for thread/process backends"
    )
    start_parser.add_argument(
        "--cache-size", type=int, default=4096, help="LRU result-cache capacity per engine"
    )
    start_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist results to DIR (content-fingerprint keyed; survives restarts)",
    )
    start_parser.add_argument(
        "--cache-max-mb", type=float, default=None, metavar="MB",
        help="bound the --cache-dir size; oldest entries are evicted past it",
    )
    start_parser.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
        help="expire --cache-dir entries older than this many seconds",
    )
    start_parser.add_argument(
        "--slow-ms", type=float, default=1000.0, metavar="MS",
        help="log requests slower than this many milliseconds (with span tree)",
    )
    start_parser.add_argument(
        "--log-level", choices=sorted(LEVELS), default="info",
        help="daemon log verbosity (structured logs go to stderr)",
    )
    start_parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as one JSON object per line instead of key=value text",
    )
    start_parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="persist schemas and graph stores to DIR (snapshot + WAL; "
        "recovered before the socket binds on restart)",
    )
    start_parser.add_argument(
        "--fsync", choices=("always", "interval", "off"), default="always",
        help="WAL durability policy: fsync every record, ~100ms batches, or "
        "leave flushing to the OS",
    )
    start_parser.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="SECONDS",
        help="checkpoint dirty durable stores every SECONDS in the background",
    )
    start_parser.set_defaults(handler=_cmd_start)

    for name, helper, handler in (
        ("status", "show daemon status and cache statistics", _cmd_status),
        ("metrics", "snapshot (or watch) a daemon's metrics", _cmd_metrics),
        ("stop", "ask a running daemon to shut down", _cmd_stop),
        ("flush", "flush the daemon's result and parse caches", _cmd_flush),
        ("update", "register a graph store or apply an edge delta to it", _cmd_update),
        ("revalidate", "validate the current version of a graph store", _cmd_revalidate),
        ("checkpoint", "snapshot durable graph stores (fold WAL tails)", _cmd_checkpoint),
    ):
        sub = subparsers.add_parser(name, help=helper)
        sub.add_argument(
            "--connect", required=True, help="daemon address (socket path or HOST:PORT)"
        )
        sub.add_argument(
            "--timeout", type=float, default=30.0, help="socket timeout in seconds"
        )
        if name == "status":
            sub.add_argument("--json", action="store_true", help="print raw JSON status")
        if name == "metrics":
            sub.add_argument(
                "--json", action="store_true", help="print the full structured snapshot"
            )
            sub.add_argument(
                "--prometheus", action="store_true",
                help="print the Prometheus text exposition",
            )
            sub.add_argument(
                "--watch", type=float, default=None, metavar="SECONDS",
                help="refresh the rendering every SECONDS until interrupted",
            )
        if name == "update":
            sub.add_argument("--name", required=True, help="graph store name on the daemon")
            sub.add_argument("--data", help="RDF document registering the graph (v0)")
            sub.add_argument(
                "--delta", metavar="FILE",
                help="JSON {\"add\": [[s,a,t],...], \"remove\": [...]} edit to apply",
            )
        if name == "checkpoint":
            sub.add_argument(
                "--name", default=None,
                help="checkpoint only this graph (default: every durable store)",
            )
        if name == "revalidate":
            sub.add_argument(
                "--name", action="append",
                help="graph store name on the daemon (repeatable for a batch)",
            )
            sub.add_argument(
                "--all", action="store_true",
                help="revalidate every graph store registered on the daemon",
            )
            sub.add_argument("--schema", required=True, help="schema rule file")
            sub.add_argument(
                "--compressed", action="store_true",
                help="use the compressed-graph semantics",
            )
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns the process exit status (2 on errors)."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # stdout was closed early (metrics/status piped into `head`, a dying
        # pager); point it at devnull so the interpreter's exit flush does
        # not raise again, and exit quietly like standard unix tools.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        target = getattr(exc, "filename", None)
        detail = f"{target}: {exc.strerror}" if target and exc.strerror else str(exc)
        print(f"shex-serve: error: {detail}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"shex-serve: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
