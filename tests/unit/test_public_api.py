"""The public API surface: everything advertised in ``repro.__all__`` exists and works."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules a one-shot ``shex-containment validate`` must never import (the
#: solver and membership modules: of an interval-RBE0 schema).
VALIDATE_NEVER_LOADS = (
    "numpy",
    "scipy",
    "networkx",
    "asyncio",
    "concurrent.futures",
    "multiprocessing",
    "repro.engine.executors",
    "repro.presburger.formula",
    "repro.presburger.solver",
    "repro.rbe.membership",
    "repro.serve",
    "repro.persist",
    "repro.containment",
    "repro.workloads",
)

#: How many ``repro`` modules that one-shot ``validate`` may load at most.
VALIDATE_MAX_REPRO_MODULES = 33

_FOOTPRINT_PROGRAM = """
import contextlib, io, json, sys
import repro.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(["validate", "--schema", sys.argv[1], "--data", sys.argv[2]])
print(json.dumps({"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


_DAEMON_FOOTPRINT_PROGRAM = """
import json, sys
import repro.serve.cli
from repro.serve.client import DaemonClient
from repro.serve.daemon import start_in_thread
address, data_dir, schema, data = sys.argv[1:5]
with start_in_thread(socket_path=address, data_dir=data_dir):
    with DaemonClient.connect(address) as client:
        if schema:
            client.load_schema("bug", text=schema)
            client.update_graph("bugs", data_text=data)
        answer = client.revalidate("bugs", "bug")
print(json.dumps({"verdict": answer["verdict"], "mode": answer["mode"],
                  "numpy": "numpy" in sys.modules}))
"""


#: ``shex-serve start --data-dir`` in the main thread; a raw-socket client
#: thread loads a schema and a graph (first run) or only revalidates (a
#: restart), then reports which modules the daemon process holds.
_SERVE_START_FOOTPRINT_PROGRAM = """
import json, socket, sys, threading, time
import repro.serve.cli
address, data_dir, schema, data = sys.argv[1:5]
report = {}

def call(sock, reader, **message):
    sock.sendall(json.dumps(message).encode("utf-8") + b"\\n")
    answer = json.loads(reader.readline())
    assert answer.get("ok"), answer
    return answer["result"]

def client():
    deadline = time.time() + 60
    while True:
        sock = socket.socket(socket.AF_UNIX)
        sock.settimeout(60)
        try:
            sock.connect(address)
            break
        except OSError:
            sock.close()
            if time.time() > deadline:
                report["error"] = "daemon did not come up"
                return
            time.sleep(0.01)
    reader = sock.makefile("rb")
    try:
        call(sock, reader, op="ping")
        if schema:
            call(sock, reader, op="load_schema", name="bug", text=schema)
            call(sock, reader, op="update_graph", name="bugs", data={"text": data})
        answer = call(sock, reader, op="revalidate", name="bugs", schema="bug")
        report.update(mode=answer["mode"], verdict=answer["verdict"],
                      modules=sorted(sys.modules))
    except BaseException as exc:
        report["error"] = repr(exc)
    finally:
        call(sock, reader, op="shutdown")

threading.Thread(target=client, daemon=True).start()
code = repro.serve.cli.main(["start", "--socket", address, "--data-dir", data_dir,
                             "--log-level", "warning"])
print(json.dumps(dict(report, code=code)))
"""


def _run_footprint(tmp_path, schema_text: str, data_text: str, scipy: bool = True) -> dict:
    """Run a one-shot ``validate`` in a fresh interpreter; its report.

    ``scipy=False`` hides SciPy from that interpreter, as if not installed.
    """
    schema = tmp_path / "schema.shex"
    schema.write_text(schema_text)
    data = tmp_path / "data.ttl"
    data.write_text(data_text)
    path = SRC_DIR
    if not scipy:
        hide = tmp_path / "no-scipy"
        hide.mkdir()
        (hide / "sitecustomize.py").write_text('import sys\nsys.modules["scipy"] = None\n')
        path = os.pathsep.join((str(hide), SRC_DIR))
    completed = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROGRAM, str(schema), str(data)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def _bug_chains(copies: int, length: int, both: int) -> str:
    """Turtle for ``copies`` ``related`` chains of ``length`` bugs, each bug
    with a ``descr`` or a ``note`` literal; bug ``both`` of a chain has both."""
    lines = ["@prefix ex: <http://example.org/> ."]
    for copy in range(copies):
        for i in range(length):
            facts = ['ex:note "n"' if i % 2 else 'ex:descr "d"']
            if i == both:
                facts = ['ex:note "n"', 'ex:descr "d"']
            if i + 1 < length:
                facts.append(f"ex:related ex:c{copy}b{i + 1}")
            lines.append(f"ex:c{copy}b{i} " + " ; ".join(facts) + " .")
    return "\n".join(lines) + "\n"


def _cyclic_bugs(count: int) -> str:
    """Turtle for ``count`` bugs in one ``related`` ring, each with a literal."""
    lines = ["@prefix ex: <http://example.org/> ."]
    lines += [
        f'ex:b{i} ex:descr "d{i}" ; ex:related ex:b{(i + 1) % count} .'
        for i in range(count)
    ]
    return "\n".join(lines) + "\n"


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_subpackages_import(self):
        for module in (
            "repro.core",
            "repro.rbe",
            "repro.graphs",
            "repro.rdf",
            "repro.schema",
            "repro.presburger",
            "repro.embedding",
            "repro.containment",
            "repro.reductions",
            "repro.workloads",
            "repro.util",
            "repro.obs",
            "repro.cli",
        ):
            importlib.import_module(module)

    def test_readme_quickstart_snippet(self):
        """The README quickstart must keep working verbatim."""
        schema = repro.parse_schema(
            """
            Bug -> descr :: Literal, reportedBy :: User, reproducedBy :: Employee?, related :: Bug*
            User -> name :: Literal, email :: Literal?
            Employee -> name :: Literal, email :: Literal
            Literal -> isLiteral :: Marker
            Marker -> eps
            """
        )
        evolved = repro.parse_schema(
            """
            Bug -> descr :: Literal, reportedBy :: User, reproducedBy :: Employee*, related :: Bug*
            User -> name :: Literal, email :: Literal?
            Employee -> name :: Literal, email :: Literal
            Literal -> isLiteral :: Marker
            Marker -> eps
            """
        )
        result = repro.contains(schema, evolved)
        assert result.verdict is repro.Verdict.CONTAINED
        assert result.method == "detshex0-minus-embedding"

    def test_docstring_example_in_init(self):
        old = repro.parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        new = repro.parse_schema("Bug -> descr :: Lit?, related :: Bug*\nLit -> eps")
        assert repro.contains(old, new).verdict is repro.Verdict.CONTAINED

    def test_exceptions_form_a_hierarchy(self):
        from repro import errors

        for name in (
            "IntervalError",
            "RBESyntaxError",
            "SchemaSyntaxError",
            "SchemaClassError",
            "GraphError",
            "NotSimpleGraphError",
            "RDFSyntaxError",
            "PresburgerError",
            "ReductionError",
            "BudgetExceededError",
        ):
            exception_class = getattr(errors, name)
            assert issubclass(exception_class, errors.ReproError)

    @pytest.mark.parametrize(
        "surface",
        ["engine", "daemon", "batch-cli", "serve-cli", "status", "exports"],
    )
    def test_no_disk_result_cache_is_selectable(self, surface, tmp_path):
        """The in-memory LRU is the only result cache: no parameter, flag,
        status field or export selects or reports one on disk."""
        directory = str(tmp_path / "results")
        if surface == "engine":
            from repro.engine.validation import ValidationEngine

            with pytest.raises(TypeError):
                ValidationEngine(cache_dir=directory)
        elif surface == "daemon":
            from repro.serve.daemon import ValidationDaemon

            with pytest.raises(TypeError):
                ValidationDaemon(socket_path=str(tmp_path / "s.sock"), cache_dir=directory)
        elif surface in ("batch-cli", "serve-cli"):
            if surface == "batch-cli":
                from repro.cli import build_parser

                argv = ["batch", "--manifest", "jobs.txt", "--cache-dir", directory]
            else:
                from repro.serve.cli import build_parser

                argv = ["start", "--socket", "s.sock", "--cache-dir", directory]
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(argv)
            assert info.value.code == 2
        elif surface == "status":
            from repro.serve.client import DaemonClient
            from repro.serve.daemon import start_in_thread

            socket_path = str(tmp_path / "s.sock")
            with start_in_thread(socket_path=socket_path):
                with DaemonClient.connect(socket_path) as client:
                    status = client.status()
            assert "data_dir" in status and "cache_dir" not in status
        else:
            import repro.engine

            assert "DiskResultCache" not in repro.__all__
            assert "DiskResultCache" not in repro.engine.__all__


class TestImportFootprint:
    def test_one_shot_validate_loads_only_what_it_runs(self, tmp_path):
        report = _run_footprint(
            tmp_path,
            "Bug -> descr :: Lit, related :: Bug*\nLit -> eps\n",
            "@prefix ex: <http://example.org/> .\n"
            "ex:b1 ex:descr ex:l1 ; ex:related ex:b2, ex:b3 .\n"
            "ex:b2 ex:descr ex:l2 .\n"
            "ex:b3 ex:related ex:b1 .\n",
        )
        assert report["code"] == 1
        assert report["out"].startswith("INVALID: 2 node(s)")
        loaded = [
            module for module in report["modules"]
            if any(module == banned or module.startswith(banned + ".")
                   for banned in VALIDATE_NEVER_LOADS)
        ]
        assert loaded == []
        assert "logging" not in report["modules"]  # nothing on this path logs
        repro_modules = [
            module for module in report["modules"]
            if module == "repro" or module.startswith("repro.")
        ]
        assert len(repro_modules) <= VALIDATE_MAX_REPRO_MODULES, repro_modules

    @pytest.mark.parametrize("scipy", [True, False], ids=["full", "no-scipy"])
    @pytest.mark.parametrize("copies, length", [(1, 12), (30, 4)])
    def test_non_interval_rule_validates_like_the_reference(
        self, tmp_path, copies, length, scipy
    ):
        # A disjunction is no interval RBE0.  Twelve bugs, or 120 in 30 alike
        # chains, are typed node by node through the membership test (the
        # row memo types the chains' copies without a check) on one path,
        # whether SciPy is installed or not: the solver is never loaded.
        from repro.rdf.convert import load_graph
        from repro.schema.parser import parse_schema
        from repro.schema.reference import maximal_typing_reference

        schema_text = (
            "Bug -> (descr :: Lit | note :: Lit), related :: Bug?\n"
            "Lit -> isLiteral :: M\nM -> eps\n"
        )
        both = length // 2
        data_text = _bug_chains(copies, length, both)
        report = _run_footprint(tmp_path, schema_text, data_text, scipy=scipy)
        graph = load_graph(data_text)
        expected = maximal_typing_reference(graph, parse_schema(schema_text))
        untyped = sorted(map(str, expected.untyped()))
        assert len(untyped) == copies * (both + 1)
        lines = report["out"].splitlines()
        assert report["code"] == 1
        assert lines[0] == f"INVALID: {len(untyped)} node(s) have no type:"
        assert sorted(line.strip() for line in lines[1:]) == untyped
        assert "repro.rbe.membership" in report["modules"]
        assert "repro.presburger.solver" not in report["modules"]

    def test_one_shot_validate_of_a_large_ring_loads_no_numpy(self, tmp_path):
        # 120 bugs in one ring: a single 120-node component.
        report = _run_footprint(
            tmp_path,
            "Bug -> descr :: Lit, related :: Bug\nLit -> isLiteral :: M\nM -> eps\n",
            _cyclic_bugs(120),
        )
        assert (report["code"], report["out"].split(":")[0]) == (0, "VALID")
        assert "numpy" not in report["modules"]

    def test_daemon_restart_on_a_durable_store_loads_no_numpy(self, tmp_path):
        # One daemon persists a store; a second opens it (snapshot decode,
        # seeded typings) and revalidates.  Every rule is an interval RBE0,
        # decided without SciPy's MILP, so numpy is never imported.
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        address, data_dir = str(tmp_path / "d.sock"), str(tmp_path / "data")
        schema = "Bug -> descr :: Lit, related :: Bug*\nLit -> isLiteral :: M\nM -> eps\n"
        reports = []
        for phase_schema in (schema, ""):
            completed = subprocess.run(
                [sys.executable, "-c", _DAEMON_FOOTPRINT_PROGRAM, address, data_dir,
                 phase_schema, _cyclic_bugs(120)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            reports.append(json.loads(completed.stdout))
        assert [report["verdict"] for report in reports] == ["valid", "valid"]
        assert reports[1]["mode"] != "full"  # the restart reused its typing
        assert [report["numpy"] for report in reports] == [False, False]

    def test_serve_start_restart_loads_no_solver_nor_client(self, tmp_path):
        # ``shex-serve start --data-dir`` answering ``ping`` and a plain
        # ``revalidate``, first on a fresh directory and then on the one it
        # left: the Presburger solver loads on the first ``metrics`` request
        # only, and the client module never.
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        address, data_dir = str(tmp_path / "d.sock"), str(tmp_path / "data")
        schema = "Bug -> descr :: Lit, related :: Bug*\nLit -> isLiteral :: M\nM -> eps\n"
        reports = []
        for phase_schema in (schema, ""):
            completed = subprocess.run(
                [sys.executable, "-c", _SERVE_START_FOOTPRINT_PROGRAM, address, data_dir,
                 phase_schema, _cyclic_bugs(12)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            report = json.loads(completed.stdout.splitlines()[-1])
            assert "error" not in report, report
            reports.append(report)
        assert [report["verdict"] for report in reports] == ["valid", "valid"]
        assert reports[1]["mode"] != "full"  # the restart reused its typing
        for report in reports:
            assert report["code"] == 0
            assert "repro.presburger.solver" not in report["modules"]
            assert "repro.presburger.formula" not in report["modules"]
            assert "repro.serve.client" not in report["modules"]

    def test_daemon_start_loads_no_containment_code(self, tmp_path):
        # The containment engine imports its solver on the first ``contains``
        # request: a daemon that restarts and revalidates never loads it.
        program = (
            "import sys, repro.serve.cli\n"
            "from repro.serve.daemon import ValidationDaemon\n"
            "ValidationDaemon(socket_path=sys.argv[1])\n"
            "print(sorted(m for m in sys.modules if m == 'repro.containment'"
            " or m.startswith('repro.containment.')))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program, str(tmp_path / "s.sock")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_store_layer_does_not_import_numpy(self):
        # The versioned store and its kind partition are pure Python,
        # so they behave the same whether or not numpy is installed.
        program = (
            "import sys, repro.graphs.store, repro.graphs.partition; "
            "print('numpy' in sys.modules)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"

    def test_large_region_typing_does_not_import_numpy(self):
        # One kernel types every region, however large: per-node typing of
        # 20,000 nodes runs the same pure-Python code with or without numpy.
        program = (
            "import sys\n"
            "from repro.engine.fixpoint import FixpointStats, maximal_typing_fixpoint\n"
            "from repro.graphs.graph import Graph\n"
            "from repro.schema.parser import parse_schema\n"
            "graph = Graph.from_edges(((i, 'a', i + 1, None) for i in range(19_999)))\n"
            "stats = FixpointStats()\n"
            "typing = maximal_typing_fixpoint(graph, parse_schema('T -> a :: T?'), stats=stats)\n"
            "print(len(typing.untyped()), stats.components, 'numpy' in sys.modules)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["0", "20000", "False"]
